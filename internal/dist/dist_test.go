package dist

// Cluster equivalence suite: a 3-worker loopback cluster must answer the full
// columnar-equivalence query matrix identically to a single-process DB over
// the same files — same rows, same task rows, same repairs, and the same cost
// metrics, because the SPMD execution model makes every node's run a replica
// of the single-process one. The suite also pins the failure semantics: a
// worker killed mid-query is evicted and its slots re-execute elsewhere, a
// client disconnect cancels the remote fragments, and neither path leaks
// goroutines.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cleandb"
	"cleandb/internal/datagen"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// --- shared fixtures ---------------------------------------------------------

// writeEquivSources renders the equivalence relations to CSV files: cluster
// sources must be file-backed so the coordinator can ship them by path.
func writeEquivSources(tb testing.TB, lineitemRows int) map[string]string {
	tb.Helper()
	dir := tb.TempDir()
	cust := datagen.GenCustomer(datagen.CustomerConfig{Rows: 60, Seed: 7})
	line := datagen.GenLineitem(datagen.LineitemConfig{Rows: lineitemRows, NoiseDiscount: true, Seed: 11})
	dictSchema := types.NewSchema("term")
	var dict []types.Value
	seen := map[string]bool{}
	for _, r := range cust.Rows {
		if n := r.Field("name").Str(); !seen[n] {
			seen[n] = true
			dict = append(dict, types.NewRecord(dictSchema, []types.Value{types.String(n)}))
		}
	}
	paths := make(map[string]string)
	for name, rows := range map[string][]types.Value{
		"customer": cust.Rows, "lineitem": line, "dictionary": dict,
	} {
		path := dir + "/" + name + ".csv"
		db := cleandb.Open()
		db.RegisterRows(name, rows)
		snk, err := cleandb.SinkFromPath(path)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := db.ExecuteTo(context.Background(), "SELECT * FROM "+name+" x", snk); err != nil {
			tb.Fatalf("write %s: %v", name, err)
		}
		paths[name] = path
	}
	return paths
}

var clusterQueries = []struct {
	name    string
	query   string
	repairs string
}{
	{name: "filter_project", query: `SELECT c.name AS n, c.nationkey AS k FROM customer c WHERE c.nationkey < 12`},
	{name: "filter_string_eq", query: `SELECT c.custkey AS k FROM customer c WHERE c.address = '1 oak st'`},
	{name: "equi_join", query: `SELECT c.name AS n, o.orderkey AS ok FROM customer c, lineitem o WHERE c.custkey = o.suppkey and o.discount > 0.05`},
	{name: "fd", query: `SELECT * FROM customer c FD(c.address, prefix(c.phone))`},
	{name: "dedup", query: `SELECT * FROM customer c DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`},
	{name: "term_validation", query: `SELECT * FROM customer c, dictionary d CLUSTER BY(token_filtering, LD, 0.7, c.name)`},
	{
		name: "denial_repair",
		query: `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < 905)
REPAIR(t1.discount)`,
		repairs: "lineitem",
	},
	{
		name: "unified",
		query: `SELECT * FROM customer c
FD(c.address, prefix(c.phone))
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`,
	},
}

// --- loopback cluster --------------------------------------------------------

type testWorker struct {
	id  string
	wk  *Worker
	srv *httptest.Server
}

type testCluster struct {
	tb       testing.TB
	db       *cleandb.DB // coordinator's DB; its results are the answers
	coord    *Coordinator
	coordSrv *httptest.Server
	workers  []*testWorker
	// onExchange, when set, observes every exchange submission before the
	// coordinator handles it — the deterministic hook the failure tests use
	// to kill a worker or drop the client at a known point mid-query.
	onExchange atomic.Pointer[func(hdr exchangeHeader)]
}

// newTestCluster builds an in-process loopback cluster: a coordinator DB over
// the file sources, n workers with empty catalogs (sources arrive shipped by
// path, as in production), everything over httptest loopback HTTP.
func newTestCluster(tb testing.TB, n int, paths map[string]string, opts ...cleandb.Option) *testCluster {
	tb.Helper()
	db := cleandb.Open(opts...)
	for name, p := range paths {
		if err := db.RegisterFile(name, p); err != nil {
			tb.Fatal(err)
		}
	}
	c := &testCluster{tb: tb, db: db}
	c.coord = NewCoordinator(db, Config{
		ExchangeTimeout: 5 * time.Second,
		ProbeInterval:   time.Second,
		FragmentGrace:   5 * time.Second,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/register", c.coord.HandleRegister)
	mux.HandleFunc("POST /v1/cluster/exchange", func(w http.ResponseWriter, r *http.Request) {
		if hook := c.onExchange.Load(); hook != nil {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if hdr, _, err := decodeExchangeRequest(body); err == nil {
				(*hook)(hdr)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		c.coord.HandleExchange(w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	c.coordSrv = httptest.NewServer(mux)
	c.coord.SetAdvertiseURL(c.coordSrv.URL)

	for i := 0; i < n; i++ {
		wk := NewWorker(cleandb.Open(opts...))
		wmux := http.NewServeMux()
		wmux.HandleFunc("POST /v1/cluster/fragment", wk.HandleFragment)
		wmux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := httptest.NewServer(wmux)
		id := c.coord.register(srv.URL)
		c.workers = append(c.workers, &testWorker{id: id, wk: wk, srv: srv})
	}
	tb.Cleanup(c.close)
	return c
}

func (c *testCluster) close() {
	c.coord.Close()
	c.coordSrv.Close()
	for _, w := range c.workers {
		w.srv.Close()
	}
}

// run executes one query distributed: a session over the live workers, the
// coordinator's own execution with its exchange seat attached, then the
// fragment results.
func (c *testCluster) run(ctx context.Context, query string) (*cleandb.Result, []FragmentResult, error) {
	c.tb.Helper()
	sess := c.coord.StartSession(ctx, query, nil)
	if sess == nil {
		c.tb.Fatal("StartSession declined: no live workers")
	}
	res, err := c.db.QueryContext(sess.Attach(ctx), query)
	frags := sess.Finish()
	if err != nil {
		return nil, frags, err
	}
	return res, frags, nil
}

func (c *testCluster) closeIdle() {
	c.coord.client.CloseIdleConnections()
	c.coord.probeClient.CloseIdleConnections()
	for _, w := range c.workers {
		w.wk.client.CloseIdleConnections()
	}
}

// settle waits for the goroutine count to return to (near) its baseline.
func (c *testCluster) settle(before int) {
	c.tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.closeIdle()
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			c.tb.Fatalf("goroutines leaked: baseline %d, now %d", before, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// --- equivalence helpers -----------------------------------------------------

func canon(rows []types.Value) []string {
	out := make([]string, len(rows))
	for i, v := range rows {
		out[i] = types.Key(v)
	}
	return out
}

func diffRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cluster %d rows vs single-process %d rows", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs:\n cluster:  %s\n single:   %s", label, i, got[i], want[i])
		}
	}
}

// checkClusterEquiv runs one query on the cluster and on the reference DB and
// asserts identical rows, task rows, repairs and cost metrics.
func checkClusterEquiv(t *testing.T, c *testCluster, single *cleandb.DB, label, query, repairs string) []FragmentResult {
	t.Helper()
	resC, frags, errC := c.run(context.Background(), query)
	resS, errS := single.Query(query)
	if (errC == nil) != (errS == nil) {
		t.Fatalf("%s: cluster err=%v, single err=%v", label, errC, errS)
	}
	if errC != nil {
		t.Fatalf("%s: %v", label, errC)
	}
	diffRows(t, label+"/rows", canon(resC.Rows()), canon(resS.Rows()))
	for _, task := range resS.TaskNames() {
		gotC, okC := resC.TaskRowsOK(task)
		gotS, _ := resS.TaskRowsOK(task)
		if !okC {
			t.Fatalf("%s: task %q missing from cluster result", label, task)
		}
		diffRows(t, label+"/task:"+task, canon(gotC), canon(gotS))
	}
	if repairs != "" {
		diffRows(t, label+"/repaired",
			canon(resC.RepairedRows(repairs)), canon(resS.RepairedRows(repairs)))
	}
	mc, ms := resC.Metrics(), resS.Metrics()
	if mc.SimTicks != ms.SimTicks || mc.Comparisons != ms.Comparisons ||
		mc.ShuffledRecords != ms.ShuffledRecords || mc.ShuffledBytes != ms.ShuffledBytes {
		t.Fatalf("%s: metrics diverge:\n cluster: ticks=%d cmp=%d recs=%d bytes=%d\n single:  ticks=%d cmp=%d recs=%d bytes=%d",
			label,
			mc.SimTicks, mc.Comparisons, mc.ShuffledRecords, mc.ShuffledBytes,
			ms.SimTicks, ms.Comparisons, ms.ShuffledRecords, ms.ShuffledBytes)
	}
	return frags
}

// TestClusterEquivalence is the acceptance property: a 3-worker cluster
// answers the whole query matrix identically to a single process, across the
// pinned strategy matrix. SPMD also implies every worker's fragment reports
// the *same* SimTicks and Comparisons as the single-process run — each node
// replays the full cost model — which the fragment results pin too.
func TestClusterEquivalence(t *testing.T) {
	paths := writeEquivSources(t, 150)
	strategies := []struct {
		name  string
		group physical.GroupStrategy
		theta physical.ThetaStrategy
	}{
		{"aggregate_mbucket", physical.GroupAggregate, physical.ThetaMBucket},
		{"hash_cartesian", physical.GroupHash, physical.ThetaCartesian},
		{"sort_mbucket", physical.GroupSort, physical.ThetaMBucket},
	}
	for _, st := range strategies {
		opts := []cleandb.Option{
			cleandb.WithWorkers(4),
			cleandb.WithGroupStrategy(st.group), cleandb.WithThetaStrategy(st.theta),
		}
		c := newTestCluster(t, 3, paths, opts...)
		single := cleandb.Open(opts...)
		for name, p := range paths {
			if err := single.RegisterFile(name, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range clusterQueries {
			label := st.name + "/" + q.name
			frags := checkClusterEquiv(t, c, single, label, q.query, q.repairs)
			if len(frags) != 3 {
				t.Fatalf("%s: %d fragment results, want 3", label, len(frags))
			}
			ref, _ := single.Query(q.query)
			for _, f := range frags {
				if f.Err != "" {
					t.Fatalf("%s: fragment on %s failed: %s", label, f.Worker, f.Err)
				}
				if m := ref.Metrics(); f.SimTicks != m.SimTicks || f.Comparisons != m.Comparisons {
					t.Fatalf("%s: fragment on %s reports ticks=%d cmp=%d, single-process ticks=%d cmp=%d",
						label, f.Worker, f.SimTicks, f.Comparisons, m.SimTicks, m.Comparisons)
				}
			}
		}
		c.close()
	}
}

// TestClusterWorkerKillMidQuery kills one worker at its first exchange of a
// repair query — after it joined the session, shipped sources and started
// executing — and requires the query to finish correctly anyway, with the
// victim evicted and its slots re-executed by the surviving members.
func TestClusterWorkerKillMidQuery(t *testing.T) {
	paths := writeEquivSources(t, 150)
	opts := []cleandb.Option{cleandb.WithWorkers(4)}
	c := newTestCluster(t, 3, paths, opts...)
	single := cleandb.Open(opts...)
	for name, p := range paths {
		if err := single.RegisterFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	q := clusterQueries[6] // denial_repair: many masked stages across repair rounds
	victim := c.workers[2]
	var killed atomic.Bool
	hook := func(hdr exchangeHeader) {
		if hdr.Self == victim.id && killed.CompareAndSwap(false, true) {
			// Severing the worker's connections kills the coordinator's
			// in-flight fragment POST: the eager eviction path.
			victim.srv.CloseClientConnections()
		}
	}
	c.onExchange.Store(&hook)

	frags := checkClusterEquiv(t, c, single, "kill/"+q.name, q.query, q.repairs)
	if !killed.Load() {
		t.Fatal("kill hook never fired; query had no exchange from the victim")
	}
	var sawVictim bool
	for _, f := range frags {
		if f.Worker == victim.id {
			sawVictim = true
			if f.Err == "" {
				t.Fatalf("victim %s reported success after its connections were severed", victim.id)
			}
		}
	}
	if !sawVictim {
		t.Fatalf("no fragment result for victim %s: %+v", victim.id, frags)
	}
}

// TestFragmentRequiresCustodyStamp pins the fragment handler's validation: a
// request without a custody stamp is incomplete, because the stamp is part of
// every shipped-source key and decides when a member's warm load re-divides.
func TestFragmentRequiresCustodyStamp(t *testing.T) {
	wk := NewWorker(cleandb.Open(cleandb.WithWorkers(2)))
	body, err := json.Marshal(&fragmentRequest{
		Session:     "s000001",
		Self:        "w0001",
		Members:     []string{coordID, "w0001"},
		ExchangeURL: "http://127.0.0.1:1/v1/cluster/exchange",
		Fingerprint: wk.Fingerprint(),
		Query:       `SELECT c.name AS n FROM customer c`,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	wk.HandleFragment(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/fragment", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "incomplete fragment request") {
		t.Fatalf("stamp-less fragment: status %d, body %q; want 400 incomplete fragment request",
			rec.Code, rec.Body.String())
	}
}

// TestClusterLameWorker registers a worker whose server is already gone: the
// very first fragment POST fails, the member is evicted before any barrier
// forms, and the query still answers correctly.
func TestClusterLameWorker(t *testing.T) {
	paths := writeEquivSources(t, 150)
	opts := []cleandb.Option{cleandb.WithWorkers(4)}
	c := newTestCluster(t, 2, paths, opts...)
	lame := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	lameID := c.coord.register(lame.URL)
	lame.Close()
	single := cleandb.Open(opts...)
	for name, p := range paths {
		if err := single.RegisterFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	q := clusterQueries[6]
	res, frags, err := c.run(context.Background(), q.query)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := single.Query(q.query)
	diffRows(t, "lame/rows", canon(res.Rows()), canon(ref.Rows()))
	var lameErr bool
	for _, f := range frags {
		if f.Worker == lameID && f.Err != "" {
			lameErr = true
		}
	}
	if !lameErr {
		t.Fatalf("lame worker %s reported no error: %+v", lameID, frags)
	}
}

// TestClusterClientDisconnect drops the client (cancels the query context) at
// the first exchange: the coordinator's query must fail with the
// cancellation, every worker fragment must abort rather than hang, and the
// cluster must settle back to its goroutine baseline.
func TestClusterClientDisconnect(t *testing.T) {
	paths := writeEquivSources(t, 150)
	c := newTestCluster(t, 3, paths, cleandb.WithWorkers(4))
	// Warm up: one full distributed query establishes every connection pool,
	// so the baseline below includes the steady-state transport goroutines.
	if _, _, err := c.run(context.Background(), clusterQueries[2].query); err != nil {
		t.Fatal(err)
	}
	c.closeIdle()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := func(exchangeHeader) { cancel() }
	c.onExchange.Store(&hook)

	q := clusterQueries[6]
	sess := c.coord.StartSession(ctx, q.query, nil)
	if sess == nil {
		t.Fatal("StartSession declined")
	}
	_, err := c.db.QueryContext(sess.Attach(ctx), q.query)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("coordinator query err = %v, want context.Canceled", err)
	}
	frags := sess.Finish()
	for _, f := range frags {
		if f.Err == "" {
			t.Fatalf("fragment on %s completed despite client disconnect", f.Worker)
		}
	}
	c.onExchange.Store(nil)
	c.settle(before)
}

// TestClusterHealthzStatus pins the coordinator's liveness report: per-worker
// health flips when a worker dies, and the consistent-placement partition
// custody always covers the loaded catalog exactly.
func TestClusterHealthzStatus(t *testing.T) {
	paths := writeEquivSources(t, 150)
	c := newTestCluster(t, 2, paths, cleandb.WithWorkers(4))
	// Load the catalog by running one query.
	if _, _, err := c.run(context.Background(), clusterQueries[0].query); err != nil {
		t.Fatal(err)
	}
	var total int
	for _, si := range c.db.SourceInfos() {
		total += si.Partitions
	}
	if total == 0 {
		t.Fatal("no partitions loaded")
	}
	sum := func(st ClusterStatus) int {
		n := st.CoordinatorPartitions
		for _, w := range st.Workers {
			n += w.Partitions
		}
		return n
	}
	st := c.coord.Status()
	if len(st.Workers) != 2 || !st.Workers[0].Alive || !st.Workers[1].Alive {
		t.Fatalf("workers not all alive: %+v", st.Workers)
	}
	if len(st.Members) != 3 || st.Members[0] != coordID {
		t.Fatalf("members = %v", st.Members)
	}
	if got := sum(st); got != total {
		t.Fatalf("placement covers %d partitions, catalog has %d", got, total)
	}

	// Kill a worker; the probe must flip it to dead and custody must re-plan
	// over the survivors, still covering the whole catalog.
	c.workers[1].srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = c.coord.Status()
		if !st.Workers[1].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never marked the dead worker down")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if len(st.Members) != 2 {
		t.Fatalf("members after death = %v", st.Members)
	}
	if st.Workers[1].Partitions != 0 {
		t.Fatalf("dead worker still owns %d partitions", st.Workers[1].Partitions)
	}
	if got := sum(st); got != total {
		t.Fatalf("placement after death covers %d partitions, catalog has %d", got, total)
	}
}

// --- unit tests: placement, hub, wire body -----------------------------------

func TestPlacementCoversSlots(t *testing.T) {
	members := []string{"c0", "w0001", "w0002", "w0003"}
	for _, n := range []int{0, 1, 7, 64} {
		seen := make([]string, n)
		for _, m := range members {
			for _, sl := range ownedSlots("003/theta", n, m, members) {
				if seen[sl] != "" {
					t.Fatalf("slot %d owned by both %s and %s", sl, seen[sl], m)
				}
				seen[sl] = m
			}
		}
		for sl, m := range seen {
			if m == "" {
				t.Fatalf("slot %d/%d unowned", sl, n)
			}
		}
	}
}

// TestPlacementStability pins the rendezvous property: removing one member
// only moves the keys that member owned.
func TestPlacementStability(t *testing.T) {
	members := []string{"c0", "w0001", "w0002", "w0003"}
	survivors := []string{"c0", "w0001", "w0003"}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("part/lineitem/%d", i)
		before := owner(key, members)
		after := owner(key, survivors)
		if before != "w0002" && after != before {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, before, after)
		}
		if before == "w0002" && after == "w0002" {
			t.Fatalf("key %s still owned by removed member", key)
		}
	}
}

func frameSet(slots []int) map[int][]byte {
	m := make(map[int][]byte, len(slots))
	for _, sl := range slots {
		m[sl] = []byte(fmt.Sprintf("frame-%d", sl))
	}
	return m
}

// TestHubSweepReassignsDeadMember drives the timeout backstop: a member that
// never shows up is swept, and its slots land on the coordinator, which is
// woken with extras and completes the stage alone.
func TestHubSweepReassignsDeadMember(t *testing.T) {
	members := []string{"c0", "w0001"}
	s := newHubSession(context.Background(), "s1", members, 50*time.Millisecond)
	defer s.close()
	const stage, n = "001/theta", 8
	mine := ownedSlots(stage, n, "c0", members)
	for {
		full, extra, err := s.gather(context.Background(), "c0", stage, n, frameSet(mine))
		if err != nil {
			t.Fatal(err)
		}
		if len(extra) > 0 {
			mine = extra
			continue
		}
		for sl, f := range full {
			if want := fmt.Sprintf("frame-%d", sl); string(f) != want {
				t.Fatalf("slot %d frame = %q, want %q", sl, f, want)
			}
		}
		break
	}
	if d := s.deadMembers(); len(d) != 1 || d[0] != "w0001" {
		t.Fatalf("dead = %v, want [w0001]", d)
	}
}

// TestHubEvictsParkedMember: a parked member whose eviction arrives (failed
// fragment RPC) is woken with the eviction error, not left hanging.
func TestHubEvictsParkedMember(t *testing.T) {
	members := []string{"c0", "w0001"}
	s := newHubSession(context.Background(), "s1", members, time.Minute)
	defer s.close()
	const n = 8
	// Pick a stage where both members own slots, so w0001's full submission
	// leaves the stage incomplete and parks it.
	var stage string
	for i := 1; stage == ""; i++ {
		cand := fmt.Sprintf("%03d/theta", i)
		if len(ownedSlots(cand, n, "c0", members)) > 0 && len(ownedSlots(cand, n, "w0001", members)) > 0 {
			stage = cand
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.gather(context.Background(), "w0001", stage, n,
			frameSet(ownedSlots(stage, n, "w0001", members)))
		errc <- err
	}()
	// Wait until the worker is parked, then evict it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		parked := s.stages[stage] != nil && s.stages[stage].waiters["w0001"] != nil
		s.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never parked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.markDead("w0001")
	if err := <-errc; !errors.Is(err, errEvicted) {
		t.Fatalf("parked member got %v, want errEvicted", err)
	}
}

func TestHubSlotCountMismatch(t *testing.T) {
	members := []string{"c0", "w0001"}
	s := newHubSession(context.Background(), "s1", members, time.Minute)
	defer s.close()
	if _, _, _, err := s.submit("c0", "001/x", 4, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.submit("w0001", "001/x", 5, nil); err == nil {
		t.Fatal("diverging slot count accepted")
	}
}

func TestWireBodyRoundTrip(t *testing.T) {
	hdr := exchangeHeader{Session: "s000001", Self: "w0002", Stage: "017/theta", N: 9}
	frames := map[int][]byte{0: []byte("alpha"), 3: {}, 8: []byte("omega")}
	body, err := encodeExchangeRequest(hdr, frames)
	if err != nil {
		t.Fatal(err)
	}
	gotHdr, gotFrames, err := decodeExchangeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header = %+v, want %+v", gotHdr, hdr)
	}
	if len(gotFrames) != len(frames) {
		t.Fatalf("frames = %d, want %d", len(gotFrames), len(frames))
	}
	for sl, f := range frames {
		if !bytes.Equal(gotFrames[sl], f) {
			t.Fatalf("slot %d = %q, want %q", sl, gotFrames[sl], f)
		}
	}
	// Truncations error, never panic.
	for i := 0; i < len(body); i++ {
		if _, _, err := decodeExchangeRequest(body[:i]); err == nil {
			t.Fatalf("truncated request body of %d bytes decoded", i)
		}
	}

	for _, rep := range []exchangeReply{
		{Status: "full"},
		{Status: "extra", Extra: []int{2, 5}},
	} {
		var fr [][]byte
		if rep.Status == "full" {
			fr = [][]byte{[]byte("a"), nil, []byte("ccc")}
		}
		body, err := encodeExchangeReply(rep, fr)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, gotFr, err := decodeExchangeReply(body)
		if err != nil {
			t.Fatal(err)
		}
		if gotRep.Status != rep.Status || len(gotRep.Extra) != len(rep.Extra) {
			t.Fatalf("reply = %+v, want %+v", gotRep, rep)
		}
		if rep.Status == "full" && len(gotFr) != len(fr) {
			t.Fatalf("reply frames = %d, want %d", len(gotFr), len(fr))
		}
	}
}

// --- benchmark ---------------------------------------------------------------

// BenchmarkDistributedThetaJoin measures the distributed theta join over
// loopback: the same join-heavy denial query against 1 vs 3 in-process
// workers. Every member shares this machine's cores, so wall time mostly
// prices the exchange overhead; the scaling that worker count buys shows in
// node-slots/op — the masked join slots the coordinator executes itself,
// which placement divides by the member count (on a real cluster that
// division is the wall-clock win).
func BenchmarkDistributedThetaJoin(b *testing.B) {
	paths := writeEquivSources(b, 1200)
	const q = `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < 1400)
REPAIR(t1.discount)`
	for _, nw := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			c := newTestCluster(b, nw, paths, cleandb.WithWorkers(8))
			ctx := context.Background()
			if _, _, err := c.run(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var coordSlots, clusterSlots int64
			for i := 0; i < b.N; i++ {
				sess := c.coord.StartSession(ctx, q, nil)
				if sess == nil {
					b.Fatal("StartSession declined")
				}
				if _, err := c.db.QueryContext(sess.Attach(ctx), q); err != nil {
					b.Fatal(err)
				}
				frags := sess.Finish()
				coordSlots += sess.ExecSlots()
				clusterSlots += sess.ExecSlots()
				for _, f := range frags {
					if f.Err != "" {
						b.Fatalf("fragment on %s: %s", f.Worker, f.Err)
					}
					clusterSlots += f.ExecSlots
				}
			}
			b.ReportMetric(float64(coordSlots)/float64(b.N), "node-slots/op")
			b.ReportMetric(float64(clusterSlots)/float64(b.N), "cluster-slots/op")
		})
	}
}
