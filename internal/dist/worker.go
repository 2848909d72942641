package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cleandb"
	"cleandb/internal/data"
	"cleandb/internal/engine"
)

// Worker executes query fragments against its own DB. Under the SPMD model a
// fragment is the whole query: the worker runs the full pipeline over the
// same catalog as every other member and contributes its placement-assigned
// slots at every masked stage through the coordinator's exchange.
type Worker struct {
	db          *cleandb.DB
	fingerprint string
	client      *http.Client

	mu sync.Mutex
	// shipped remembers which path each coordinator-shipped source was
	// registered from, so repeated fragments skip re-registration and a
	// changed path re-registers.
	shipped map[string]string
}

// NewWorker wraps a DB for fragment execution. The DB must be configured
// identically to the coordinator's (same Open options); ConfigFingerprint
// enforces this at registration and on every fragment.
func NewWorker(db *cleandb.DB) *Worker {
	return &Worker{
		db:          db,
		fingerprint: db.ConfigFingerprint(),
		client:      &http.Client{}, // long-poll exchanges: no client timeout, contexts govern
		shipped:     make(map[string]string),
	}
}

// Fingerprint returns the wrapped DB's configuration fingerprint.
func (wk *Worker) Fingerprint() string { return wk.fingerprint }

// HandleFragment is the POST /v1/cluster/fragment endpoint: decode the
// fragment, sync shipped sources into the catalog, execute the query with a
// remote exchange seat, and report rows plus cost counters.
func (wk *Worker) HandleFragment(w http.ResponseWriter, r *http.Request) {
	var req fragmentRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "dist: bad fragment request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Fingerprint != wk.fingerprint {
		http.Error(w, fmt.Sprintf("dist: fingerprint mismatch: coordinator %q, worker %q",
			req.Fingerprint, wk.fingerprint), http.StatusConflict)
		return
	}
	if req.Session == "" || req.Self == "" || len(req.Members) < 2 || req.ExchangeURL == "" ||
		req.CustodyStamp == "" {
		http.Error(w, "dist: incomplete fragment request", http.StatusBadRequest)
		return
	}
	if err := wk.syncSources(req.Sources, req.CustodyStamp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	ex := &remoteExchange{
		client:  wk.client,
		url:     req.ExchangeURL,
		session: req.Session,
		self:    req.Self,
		members: req.Members,
		ctx:     ctx,
		dict:    data.NewDict(),
	}

	var resp fragmentResponse
	res, err := wk.db.QueryContext(engine.WithExchange(ctx, ex), req.Query, namedArgs(req.Params)...)
	resp.ExecSlots = ex.execSlots.Load()
	resp.CustodyRescans = ex.custodyRescans.Load()
	for _, si := range wk.db.SourceInfos() {
		resp.OwnedPartitions += int64(si.OwnedPartitions)
		resp.OwnedBytes += si.OwnedBytes
	}
	if err != nil {
		resp.Err = err.Error()
	} else {
		m := res.Metrics()
		resp.Rows = int64(res.RowCount())
		resp.SimTicks = m.SimTicks
		resp.Comparisons = m.Comparisons
		resp.ShuffledRecords = m.ShuffledRecords
		resp.ShuffledBytes = m.ShuffledBytes
		for _, rs := range res.Repairs() {
			resp.Repairs++
			resp.RepairsChanged += rs.Changed
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&resp); err != nil {
		// Response already committed; nothing useful left to do.
		return
	}
}

// syncSources registers the coordinator-shipped file-backed sources this
// worker has not seen yet (or whose backing path or epoch moved). Sources the
// worker already registered itself under the same name are left alone only
// when they came from the same path at the same version; a conflicting local
// registration is replaced, since the coordinator's catalog is authoritative
// for cluster queries. The version in the key is what keeps the catalog
// fresh across appends: when the coordinator's delta epoch moves, the
// re-registration here drops the worker's stale load and the next scan reads
// the grown file.
//
// The key also carries the session's custody stamp (sourceSpec.key, the one
// the coordinator's own resync uses), so a membership or cohort change
// drops the previous division's warm load and the next scan re-divides — on
// this worker at the same moment the coordinator's own resync does it,
// keeping every member's cold/warm state in lockstep.
func (wk *Worker) syncSources(specs []sourceSpec, stamp string) error {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	for _, s := range specs {
		if s.Path == "" {
			continue
		}
		key := s.key(stamp)
		if wk.shipped[s.Name] == key {
			continue
		}
		if err := wk.db.RegisterFile(s.Name, s.Path); err != nil {
			return fmt.Errorf("dist: ship source %q from %q: %w", s.Name, s.Path, err)
		}
		wk.shipped[s.Name] = key
	}
	return nil
}
