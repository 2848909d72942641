package dist

import (
	"math"

	"cleandb"
)

// proto.go defines the JSON control-plane messages between coordinator and
// workers. The data plane (slot frames through the exchange) is binary; see
// wirebody.go.

// registerRequest is a worker announcing itself to the coordinator.
type registerRequest struct {
	// URL is the worker's advertised base URL; the coordinator POSTs
	// fragments to URL+"/v1/cluster/fragment" and probes URL+"/healthz".
	URL string `json:"url"`
	// Fingerprint is the worker DB's ConfigFingerprint; registration is
	// refused on mismatch, because SPMD replay requires identical planning.
	Fingerprint string `json:"fingerprint"`
}

type registerResponse struct {
	// ID is the member id the coordinator assigned ("w0001", ...); stable
	// across re-registration from the same URL.
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
}

// sourceSpec ships one catalog entry by path. Only file-backed sources are
// shippable; in-memory sources stay coordinator-local, and a worker fragment
// that needs one fails over to the coordinator via slot reassignment.
type sourceSpec struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Format string `json:"format"`
	// Version fingerprints the coordinator's loaded incremental state of the
	// entry (base generation + delta epoch). A worker that already holds the
	// path re-registers when it changes, so a file grown or rewritten since
	// the last fragment is re-scanned instead of served from the stale load —
	// members agree on the catalog only if every member reads the same epoch.
	Version string `json:"version,omitempty"`
}

// key is the shipped-source identity under one custody division,
// path#g<base>.e<delta>|stamp. The coordinator keys its own custody resync
// on it and workers key their synced registrations on it, so every member
// drops a warm load at the same moment: when the file's version or the
// division moves.
func (s sourceSpec) key(stamp string) string { return s.Path + "#" + s.Version + "|" + stamp }

// fragmentRequest asks a worker to execute its share of one query.
type fragmentRequest struct {
	Session string `json:"session"`
	// Self is this worker's member id; Members the session membership with
	// the coordinator first — the inputs every node feeds placement.
	Self    string   `json:"self"`
	Members []string `json:"members"`
	// ExchangeURL is the coordinator's exchange endpoint for this session.
	ExchangeURL string `json:"exchange_url"`
	// Fingerprint must match the worker's DB configuration.
	Fingerprint string         `json:"fingerprint"`
	Query       string         `json:"query"`
	Params      map[string]any `json:"params,omitempty"`
	// TimeoutMs bounds the fragment wall clock when positive.
	TimeoutMs int64        `json:"timeout_ms,omitempty"`
	Sources   []sourceSpec `json:"sources"`
	// CustodyStamp fingerprints the custody division (registration cohort +
	// membership); a fragment without one is rejected. Workers fold it into
	// their shipped-source keys, so a stamp change re-registers the source
	// and the next scan re-divides under the current membership on every
	// member at once — cold and warm members never disagree about whether a
	// scan stage runs.
	CustodyStamp string `json:"custody_stamp"`
}

// fragmentResponse reports the fragment outcome. Under SPMD the worker's
// counters are its local view of the shared query (identical SimTicks, local
// share of Comparisons); the coordinator merges them into trailer metrics.
type fragmentResponse struct {
	Err             string `json:"err,omitempty"`
	Rows            int64  `json:"rows"`
	SimTicks        int64  `json:"sim_ticks"`
	Comparisons     int64  `json:"comparisons"`
	ShuffledRecords int64  `json:"shuffled_records"`
	ShuffledBytes   int64  `json:"shuffled_bytes"`
	// Repairs counts REPAIR clauses executed; RepairsChanged the values they
	// rewrote — equal on every live node when the run is consistent.
	Repairs        int64 `json:"repairs"`
	RepairsChanged int64 `json:"repairs_changed"`
	// ExecSlots counts the masked join slots this node actually executed:
	// its placement share plus any slots reassigned to it. Unlike the
	// simulated counters above, this one measures real work division.
	ExecSlots int64 `json:"exec_slots"`
	// CustodyRescans counts scan chunks this worker adopted from a dead peer
	// and re-parsed during the fragment. OwnedPartitions and OwnedBytes are
	// the worker's loaded custody share across the catalog: roughly 1/N of
	// the totals for sources with per-chunk scan planning, the whole source
	// for XML and in-memory ones.
	CustodyRescans  int64 `json:"custody_rescans,omitempty"`
	OwnedPartitions int64 `json:"owned_partitions,omitempty"`
	OwnedBytes      int64 `json:"owned_bytes,omitempty"`
}

// namedArgs converts a JSON params map to cleandb named arguments, mirroring
// the server's queryRequest conversion exactly: whole floats within the
// contiguous-integer range become int64, so a fragment binds the same typed
// values the coordinator bound.
func namedArgs(params map[string]any) []any {
	if len(params) == 0 {
		return nil
	}
	out := make([]any, 0, len(params))
	for k, v := range params {
		if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < (1<<53) {
			v = int64(f)
		}
		out = append(out, cleandb.Named(k, v))
	}
	return out
}
