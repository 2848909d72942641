package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cleandb"
	"cleandb/internal/engine"
)

// coordID is the coordinator's member id: always members[0], never evicted.
const coordID = "c0"

// CustodyPartitioned names the only custody mode: cold scans divide across
// the members (each loads only the chunks it owns and gathers the rest).
//
// Deprecated: Config.Custody is ignored; the constant remains only for
// callers that still set it.
const CustodyPartitioned = "partitioned"

// Config tunes a Coordinator. Zero values select the defaults.
type Config struct {
	// AdvertiseURL is the base URL workers reach this coordinator on; the
	// exchange endpoint is AdvertiseURL+"/v1/cluster/exchange". Until it is
	// set (flag at startup, or SetAdvertiseURL once a listener exists),
	// StartSession declines and queries run single-process.
	AdvertiseURL string
	// ExchangeTimeout is the barrier failure detector: a member owing slots
	// that neither submits nor parks within it is declared dead and its
	// slots reassigned. Default 30s.
	ExchangeTimeout time.Duration
	// ProbeInterval paces the background worker health probes. Default 2s.
	ProbeInterval time.Duration
	// FragmentGrace bounds how long Finish waits for worker fragment
	// responses after the coordinator's own query completed. Default 2s.
	FragmentGrace time.Duration
	// MaxBody caps exchange request bodies. Default 256 MiB.
	MaxBody int64
	// Custody is ignored: sessions always divide cold scans by partition
	// custody.
	//
	// Deprecated: there is one custody mode; leave the field unset.
	Custody string
	// Logf receives cluster events (registrations, evictions); nil drops them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ExchangeTimeout <= 0 {
		c.ExchangeTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.FragmentGrace <= 0 {
		c.FragmentGrace = 2 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 256 << 20
	}
	return c
}

// workerEntry is one registered worker in the coordinator's registry.
type workerEntry struct {
	id       string
	url      string
	alive    bool
	lastSeen time.Time
	// ownedParts/ownedBytes are the worker's last-reported loaded custody
	// share — the /healthz and /metrics memory-division gauges.
	ownedParts int64
	ownedBytes int64
}

// Coordinator owns the cluster: the worker registry, health probing, session
// dispatch and the barrier hub every session's exchanges flow through. It
// executes queries itself too — the coordinator is a full SPMD member, so its
// own result is the query's answer.
type Coordinator struct {
	db          *cleandb.DB
	cfg         Config
	fingerprint string
	client      *http.Client // fragment dispatch: long-lived, context-governed
	probeClient *http.Client // health probes: short timeout

	stopOnce sync.Once
	stop     chan struct{}
	probeWG  sync.WaitGroup

	mu       sync.Mutex
	workers  map[string]*workerEntry
	byURL    map[string]string
	seq      int
	sessions map[string]*Session
	sessSeq  int64
	// cohort counts worker registrations, including re-registrations from a
	// restarted worker. It feeds the custody stamp: a restarted worker holds
	// nothing, so the whole cluster must re-divide its loads even though the
	// membership ids look unchanged.
	cohort int64
	// coordShipped mirrors the workers' shipped-source keys for the
	// coordinator's own catalog: source name → Path#Version|stamp of the last
	// custody resync, so StartSession re-registers (and thus custody-reloads)
	// exactly when workers will.
	coordShipped map[string]string

	// custodyRescans totals adopted-and-re-parsed scan chunks across all
	// members and sessions — the /metrics cleandb_custody_rescan_total source.
	custodyRescans atomic.Int64
}

// NewCoordinator builds a coordinator over db and starts its health prober.
// Call Close to stop probing.
func NewCoordinator(db *cleandb.DB, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		db:           db,
		cfg:          cfg,
		fingerprint:  db.ConfigFingerprint(),
		client:       &http.Client{},
		probeClient:  &http.Client{Timeout: cfg.ProbeInterval},
		stop:         make(chan struct{}),
		workers:      make(map[string]*workerEntry),
		byURL:        make(map[string]string),
		sessions:     make(map[string]*Session),
		coordShipped: make(map[string]string),
	}
	c.probeWG.Add(1)
	go c.probeLoop()
	return c
}

// Close stops the health prober. In-flight sessions are unaffected; their
// owners close them.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
}

// SetAdvertiseURL installs the coordinator's reachable base URL after the
// listener exists (tests bind to ephemeral ports).
func (c *Coordinator) SetAdvertiseURL(u string) {
	c.mu.Lock()
	c.cfg.AdvertiseURL = u
	c.mu.Unlock()
}

// Fingerprint returns the coordinator DB's configuration fingerprint.
func (c *Coordinator) Fingerprint() string { return c.fingerprint }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// register adds (or refreshes) a worker by URL and returns its stable id.
// Every call bumps the registration cohort: a worker only registers at
// startup, so a repeat registration from a known URL means the worker
// restarted empty and custody loads must re-divide.
func (c *Coordinator) register(url string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cohort++
	if id, ok := c.byURL[url]; ok {
		w := c.workers[id]
		w.alive = true
		w.lastSeen = time.Now()
		return id
	}
	c.seq++
	id := fmt.Sprintf("w%04d", c.seq)
	c.workers[id] = &workerEntry{id: id, url: url, alive: true, lastSeen: time.Now()}
	c.byURL[url] = id
	c.logf("dist: worker %s registered at %s", id, url)
	return id
}

// noteEviction runs whenever a session evicts a member. An eviction can
// leave the victim cold — its divided scan died with the session while the
// survivors adopted its chunks and finished warm — a state no later session
// with the same stamp repairs, because warm members never revisit the scan
// barrier the cold one parks at. Bumping the cohort
// changes the next session's custody stamp, so every member goes cold and
// re-divides in lockstep and the victim (if still alive) rejoins cleanly.
func (c *Coordinator) noteEviction(session, member string) {
	c.mu.Lock()
	c.cohort++
	c.mu.Unlock()
	c.logf("dist: session %s: evicted %s; custody re-divides next session", session, member)
}

// liveWorkers snapshots the alive registry entries in id order.
func (c *Coordinator) liveWorkers() []workerEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []workerEntry
	for _, w := range c.workers {
		if w.alive {
			out = append(out, *w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (c *Coordinator) markWorkerDown(id string) {
	c.mu.Lock()
	if w := c.workers[id]; w != nil && w.alive {
		w.alive = false
		c.logf("dist: worker %s (%s) marked down", id, w.url)
	}
	c.mu.Unlock()
}

// probeLoop GETs every worker's /healthz each interval, flipping liveness in
// the registry. A worker that comes back (or re-registers) rejoins the next
// session; in-flight sessions keep their membership and rely on the barrier's
// eviction instead.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		targets := make([]workerEntry, 0, len(c.workers))
		for _, w := range c.workers {
			targets = append(targets, *w)
		}
		c.mu.Unlock()
		for _, w := range targets {
			resp, err := c.probeClient.Get(w.url + "/healthz")
			ok := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			c.mu.Lock()
			if e := c.workers[w.id]; e != nil {
				if ok {
					if !e.alive {
						c.logf("dist: worker %s (%s) back up", w.id, w.url)
					}
					e.alive = true
					e.lastSeen = time.Now()
				} else {
					if e.alive {
						c.logf("dist: worker %s (%s) failed probe: %v", w.id, w.url, err)
					}
					e.alive = false
				}
			}
			c.mu.Unlock()
		}
	}
}

// shippableSources lists the catalog entries workers can load by path, each
// stamped with the coordinator's loaded epoch so workers re-scan a file that
// grew since their last fragment.
func (c *Coordinator) shippableSources() []sourceSpec {
	var out []sourceSpec
	for _, si := range c.db.SourceInfos() {
		if si.Path != "" {
			out = append(out, specOf(si))
		}
	}
	return out
}

// specOf describes a file-backed catalog entry for shipping, versioned by
// its base generation and delta epoch.
func specOf(si cleandb.SourceInfo) sourceSpec {
	return sourceSpec{Name: si.Name, Path: si.Path, Format: si.Format,
		Version: fmt.Sprintf("g%d.e%d", si.BaseGen, si.DeltaEpoch)}
}

// custodyStamp fingerprints one custody division: the registration cohort
// and the session membership. Any change to it means the chunks each member
// owns (or holds) may have moved, so stamped shipped-source keys force a
// re-registration — and with it a freshly divided cold scan — on every member
// at once.
func custodyStamp(cohort int64, members []string) string {
	return strconv.FormatInt(cohort, 10) + "/" + strings.Join(members, ",")
}

// resyncCustody unloads the coordinator's own shippable sources when their
// custody stamp moved since they were last loaded. Without this a coordinator
// holding a warm load from an earlier division would stay silent at the scan
// barrier while workers park on its chunks; unloading drops the warm state so
// the coordinator cold-loads under the same division the workers use. Unload —
// not re-registration — because the entry's version must keep tracking the
// file's incremental state: workers key their synced catalogs on it, and a
// version reset would mask a rewrite they still need to pick up. Sources
// whose stamp is current keep their warm data — as do the workers', because
// their shipped keys carry the same stamp.
func (c *Coordinator) resyncCustody(stamp string) {
	for _, si := range c.db.SourceInfos() {
		if si.Path == "" {
			continue
		}
		key := specOf(si).key(stamp)
		c.mu.Lock()
		cur := c.coordShipped[si.Name]
		c.mu.Unlock()
		if cur == key {
			continue
		}
		if err := c.db.Unload(si.Name); err != nil {
			c.logf("dist: custody resync of %q failed: %v", si.Name, err)
			continue
		}
		c.mu.Lock()
		c.coordShipped[si.Name] = key
		c.mu.Unlock()
	}
}

// unshippableDelta reports whether any catalog source carries un-folded
// appended partitions. Two divergences make such a catalog unreplicable:
// memory-only appended rows (payload or programmatic appends) cannot be
// reconstructed from any path, and even file-backed tail partitions give the
// coordinator a partition layout a worker's cold scan of the same file will
// never reproduce — SPMD slot masking requires identical layouts on every
// member. Either way a distributed session would serve a stale or diverging
// replicated view; it refuses to start instead and the query runs
// single-process, correct. A reset re-scan (file rewritten — the base
// generation moves) folds the tail and re-admits the source.
func (c *Coordinator) unshippableDelta() (string, bool) {
	for _, si := range c.db.SourceInfos() {
		if si.Appends > 0 || si.MemRows > 0 {
			return si.Name, true
		}
	}
	return "", false
}

// FragmentResult is one worker's fragment outcome, surfaced in response
// trailers and metrics.
type FragmentResult struct {
	Worker          string
	Err             string
	Rows            int64
	SimTicks        int64
	Comparisons     int64
	ShuffledRecords int64
	ShuffledBytes   int64
	Repairs         int64
	RepairsChanged  int64
	// ExecSlots is the count of masked join slots the worker actually
	// executed — real work division, unlike the simulated counters above.
	ExecSlots int64
	// CustodyRescans counts scan chunks the worker adopted from a dead peer
	// and re-parsed; OwnedPartitions/OwnedBytes its loaded custody share.
	CustodyRescans  int64
	OwnedPartitions int64
	OwnedBytes      int64
}

// Session is one distributed query: a barrier hub, the coordinator's local
// exchange seat, and the in-flight worker fragments.
type Session struct {
	c   *Coordinator
	id  string
	hub *hubSession
	ex  *localExchange
	wg  sync.WaitGroup

	mu      sync.Mutex
	results []FragmentResult
	closed  bool
}

// StartSession plans a distributed execution of query: it opens a barrier
// session over the coordinator plus every live worker and dispatches the
// fragment to each worker. It returns nil (no error) when the cluster cannot
// help — no live workers, or no advertise URL — in which case the caller
// runs the query single-process, unchanged.
//
// ctx must be the query's own context: cancelling it (client disconnect)
// tears down the barrier and the in-flight fragment requests.
func (c *Coordinator) StartSession(ctx context.Context, query string, params map[string]any) *Session {
	c.mu.Lock()
	advertise := c.cfg.AdvertiseURL
	c.mu.Unlock()
	live := c.liveWorkers()
	if len(live) == 0 || advertise == "" {
		return nil
	}
	if name, ok := c.unshippableDelta(); ok {
		c.logf("dist: source %q holds un-folded appended partitions; serving single-process", name)
		return nil
	}
	members := make([]string, 0, len(live)+1)
	members = append(members, coordID)
	for _, w := range live {
		members = append(members, w.id)
	}
	c.mu.Lock()
	cohort := c.cohort
	c.sessSeq++
	id := fmt.Sprintf("s%06d", c.sessSeq)
	c.mu.Unlock()
	stamp := custodyStamp(cohort, members)
	c.resyncCustody(stamp)

	hub := newHubSession(ctx, id, members, c.cfg.ExchangeTimeout)
	hub.onEvict = func(member string) { c.noteEviction(id, member) }
	sess := &Session{c: c, id: id, hub: hub, ex: newLocalExchange(hub, ctx)}
	c.mu.Lock()
	c.sessions[id] = sess
	c.mu.Unlock()

	base := fragmentRequest{
		Session:      id,
		Members:      members,
		ExchangeURL:  advertise + "/v1/cluster/exchange",
		Fingerprint:  c.fingerprint,
		Query:        query,
		Params:       params,
		Sources:      c.shippableSources(),
		CustodyStamp: stamp,
	}
	for _, w := range live {
		req := base
		req.Self = w.id
		sess.wg.Add(1)
		go func(w workerEntry, req fragmentRequest) {
			defer sess.wg.Done()
			sess.runFragment(w, req)
		}(w, req)
	}
	return sess
}

// runFragment POSTs one worker's fragment and folds the outcome into the
// session. Any failure — transport, HTTP status, or a query error on the
// worker — evicts the worker from the barrier so its slots reassign; the
// query itself survives on the remaining members.
func (s *Session) runFragment(w workerEntry, req fragmentRequest) {
	resp, err := s.c.postFragment(s.hub.ctx, w.url, req)
	if err != nil {
		s.hub.markDead(w.id)
		s.c.markWorkerDown(w.id)
		s.c.logf("dist: session %s: fragment on %s failed: %v", s.id, w.id, err)
		s.record(FragmentResult{Worker: w.id, Err: err.Error()})
		return
	}
	if resp.Err != "" {
		s.hub.markDead(w.id)
		s.c.logf("dist: session %s: fragment on %s errored: %s", s.id, w.id, resp.Err)
	}
	s.record(FragmentResult{
		Worker: w.id, Err: resp.Err, Rows: resp.Rows,
		SimTicks: resp.SimTicks, Comparisons: resp.Comparisons,
		ShuffledRecords: resp.ShuffledRecords, ShuffledBytes: resp.ShuffledBytes,
		Repairs: resp.Repairs, RepairsChanged: resp.RepairsChanged,
		ExecSlots:      resp.ExecSlots,
		CustodyRescans: resp.CustodyRescans, OwnedPartitions: resp.OwnedPartitions, OwnedBytes: resp.OwnedBytes,
	})
	s.c.custodyRescans.Add(resp.CustodyRescans)
	s.c.mu.Lock()
	if e := s.c.workers[w.id]; e != nil {
		e.ownedParts, e.ownedBytes = resp.OwnedPartitions, resp.OwnedBytes
	}
	s.c.mu.Unlock()
}

func (c *Coordinator) postFragment(ctx context.Context, url string, freq fragmentRequest) (*fragmentResponse, error) {
	body, err := json.Marshal(&freq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/cluster/fragment", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("dist: fragment: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var fr fragmentResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return nil, fmt.Errorf("dist: fragment response: %w", err)
	}
	return &fr, nil
}

func (s *Session) record(r FragmentResult) {
	s.mu.Lock()
	s.results = append(s.results, r)
	s.mu.Unlock()
}

// Attach threads the coordinator's exchange seat into ctx; the query run
// under the returned context executes its masked stages through the barrier.
func (s *Session) Attach(ctx context.Context) context.Context {
	return engine.WithExchange(ctx, s.ex)
}

// Dead lists the members evicted during the session.
func (s *Session) Dead() []string { return s.hub.deadMembers() }

// ExecSlots reports how many masked join slots the coordinator itself
// executed in this session — its real share of the distributed join work.
func (s *Session) ExecSlots() int64 { return s.ex.execSlots.Load() }

// CustodyRescans reports how many scan chunks the coordinator itself adopted
// from dead peers and re-parsed in this session.
func (s *Session) CustodyRescans() int64 { return s.ex.custodyRescans.Load() }

// Finish ends the session after the coordinator's query completed: it waits
// up to the configured grace for worker fragments to stream their metrics
// back (they finish right behind the last barrier), then tears the barrier
// down and returns the fragment results in worker order.
func (s *Session) Finish() []FragmentResult {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.c.cfg.FragmentGrace):
	}
	s.Close()
	<-done
	s.mu.Lock()
	out := append([]FragmentResult(nil), s.results...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Close tears the barrier down (idempotent), unblocking every parked member
// and cancelling in-flight fragment requests.
func (s *Session) Close() {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if closed {
		return
	}
	s.c.custodyRescans.Add(s.ex.custodyRescans.Load())
	s.hub.close()
	s.c.mu.Lock()
	delete(s.c.sessions, s.id)
	s.c.mu.Unlock()
}

// HandleRegister is the POST /v1/cluster/register endpoint.
func (c *Coordinator) HandleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, "dist: bad register request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.URL == "" {
		http.Error(w, "dist: register: missing url", http.StatusBadRequest)
		return
	}
	if req.Fingerprint != c.fingerprint {
		http.Error(w, fmt.Sprintf("dist: fingerprint mismatch: coordinator %q, worker %q",
			c.fingerprint, req.Fingerprint), http.StatusConflict)
		return
	}
	id := c.register(req.URL)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&registerResponse{ID: id, Fingerprint: c.fingerprint})
}

// HandleExchange is the POST /v1/cluster/exchange endpoint: one gather
// long-poll. The response is binary (wirebody.go); HTTP error statuses cover
// routing failures — 404 unknown session, 410 evicted member.
func (c *Coordinator) HandleExchange(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBody))
	if err != nil {
		http.Error(w, "dist: exchange body: "+err.Error(), http.StatusBadRequest)
		return
	}
	hdr, frames, err := decodeExchangeRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	sess := c.sessions[hdr.Session]
	c.mu.Unlock()
	if sess == nil {
		http.Error(w, fmt.Sprintf("dist: unknown session %q", hdr.Session), http.StatusNotFound)
		return
	}
	full, extra, err := sess.hub.gather(r.Context(), hdr.Self, hdr.Stage, hdr.N, frames)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errEvicted) {
			status = http.StatusGone
		}
		http.Error(w, err.Error(), status)
		return
	}
	rep := exchangeReply{Status: "full"}
	if len(extra) > 0 {
		rep = exchangeReply{Status: "extra", Extra: extra}
		full = nil
	}
	out, err := encodeExchangeReply(rep, full)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out)
}

// WorkerStatus is one registry entry in the health report.
type WorkerStatus struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	Alive    bool      `json:"alive"`
	LastSeen time.Time `json:"last_seen"`
	// Partitions counts the loaded catalog partitions placement assigns this
	// worker custody of under the current live membership.
	Partitions int `json:"partitions"`
	// OwnedPartitions and LoadedBytes are the worker's last-reported loaded
	// custody share: how many chunks it actually parsed and the input bytes
	// behind them. For sources with per-chunk scan planning they trend to
	// 1/N of the catalog; XML and in-memory sources count in full.
	OwnedPartitions int64 `json:"owned_partitions"`
	LoadedBytes     int64 `json:"loaded_bytes"`
}

// ClusterStatus is the coordinator's /healthz cluster report.
type ClusterStatus struct {
	Role string `json:"role"`
	// Members is the membership the next session would use.
	Members []string `json:"members"`
	// CoordinatorPartitions counts the loaded partitions in the
	// coordinator's own custody.
	CoordinatorPartitions int `json:"coordinator_partitions"`
	// CoordinatorOwnedPartitions/CoordinatorLoadedBytes mirror the per-worker
	// loaded-share gauges for the coordinator's own catalog.
	CoordinatorOwnedPartitions int64          `json:"coordinator_owned_partitions"`
	CoordinatorLoadedBytes     int64          `json:"coordinator_loaded_bytes"`
	Workers                    []WorkerStatus `json:"workers"`
	ActiveSessions             int            `json:"active_sessions"`
	// CustodyRescans totals the scan chunks adopted from dead members and
	// re-parsed, across all members and sessions since startup.
	CustodyRescans int64 `json:"custody_rescans"`
}

// Status reports per-worker liveness and consistent-placement partition
// custody over the loaded catalog.
func (c *Coordinator) Status() ClusterStatus {
	live := c.liveWorkers()
	members := make([]string, 0, len(live)+1)
	members = append(members, coordID)
	for _, w := range live {
		members = append(members, w.id)
	}
	counts := make(map[string]int)
	var coordOwned, coordBytes int64
	for _, si := range c.db.SourceInfos() {
		for i := 0; i < si.Partitions; i++ {
			counts[PartitionOwner(si.Name, i, members)]++
		}
		coordOwned += int64(si.OwnedPartitions)
		coordBytes += si.OwnedBytes
	}
	c.mu.Lock()
	st := ClusterStatus{
		Role:                       "coordinator",
		Members:                    members,
		CoordinatorPartitions:      counts[coordID],
		CoordinatorOwnedPartitions: coordOwned,
		CoordinatorLoadedBytes:     coordBytes,
		ActiveSessions:             len(c.sessions),
		CustodyRescans:             c.custodyRescans.Load(),
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID: w.id, URL: w.url, Alive: w.alive, LastSeen: w.lastSeen,
			Partitions:      counts[w.id],
			OwnedPartitions: w.ownedParts,
			LoadedBytes:     w.ownedBytes,
		})
	}
	c.mu.Unlock()
	return st
}
