package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cleandb"
	"cleandb/internal/data"
	"cleandb/internal/server"
)

// serve_mix: cleaning as a service over loopback HTTP, driven open loop at a
// fixed rate, then a search for the highest rate that meets the latency
// limit. The catalog loads during set-up.
const (
	serveCustomers = 2500
	serveLineitem  = 3000
	// serveRate is the fixed offered rate, in requests per second.
	serveRate = 200.0
	// serveLimitMs is the p99 latency limit of the max_qps search.
	serveLimitMs = 100.0
	// serveFixedShare is the part of the run at the fixed rate; the rest
	// searches max_qps.
	serveFixedShare = 0.4
)

var serveBand = dcBand{t1: 915, t2: 1300}

// Request kinds and their shares of the mix.
const (
	kindPoint = iota
	kindAdhoc
	kindFD
	kindRepair
	nKinds
)

var kindNames = [nKinds]string{"point", "adhoc", "fd", "repair"}

// kindBlock is the mix, 50 requests long: point 80%, adhoc 12%, fd 6%,
// repair 2%, each kind spread evenly over the block. A schedule repeats the
// block, so every stretch of a run offers the same mix and a probe's load
// does not depend on how many heavy requests it drew or how they bunched.
var kindBlock = func() []int {
	b := make([]int, 50)
	for i := range b {
		switch {
		case i == 0:
			b[i] = kindRepair
		case i%17 == 8:
			b[i] = kindFD
		case i%8 == 4:
			b[i] = kindAdhoc
		default:
			b[i] = kindPoint
		}
	}
	return b
}()

const (
	pointQuery = `SELECT c.custkey AS k, c.name AS n, c.phone AS p FROM customer c WHERE c.custkey = :k`
	fdQuery    = `SELECT * FROM customer c WHERE c.nationkey = :n FD(c.address, prefix(c.phone))`
)

// adhocQuery draws its literals from the key space, which is far larger
// than the 128-entry default plan cache, so nearly every one misses it.
func adhocQuery(lo int64) string {
	return fmt.Sprintf(`SELECT c.custkey AS k, c.name AS n FROM customer c WHERE c.custkey >= %d and c.custkey < %d`, lo, lo+10)
}

// digestSamples is how many responses of each kind are compared with the
// reference DB.
const digestSamples = 12

func serveRepairQuery() string { return dcQuery(serveBand) + "\nREPAIR(t1.discount)" }

// request is one planned request of the open loop.
type request struct {
	kind int
	arg  int64
	due  time.Duration // offset from the loop's start
}

// response is what the load generator saw.
type response struct {
	req     request
	id      int64
	latency time.Duration // from due to last byte
	late    time.Duration // from due to send
	ttfb    time.Duration // send to first byte (traced runs)
	stream  time.Duration // first to last byte (traced runs)
	status  int
	err     error
	size    int // body bytes
	// bodyRows counts the rows in the body (bodyErr when it does not
	// parse). body itself is kept only for the responses sampled for the
	// digest check, so memory does not grow with the request count.
	bodyRows    int64
	bodyErr     error
	body        []byte
	rows        int64 // row-count trailer or envelope row_count
	trailerRows string
	comparisons int64
	ticks       int64
}

type serveEnv struct {
	db, ref *cleandb.DB
	srv     *http.Server
	base    string
	client  *http.Client
	handle  string
	maxKey  int64
	tr      *tracer
	// sampled counts, per kind, the responses whose bodies are kept for
	// the digest check.
	sampled [nKinds]atomic.Int64
	srcRows [nKinds]int
	inputs  []inputInfo
	nextID  atomic.Int64
}

func (s *serveEnv) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

func setupServe(env *runEnv, dir string) (*serveEnv, error) {
	cust := customerData(env.seed, serveCustomers)
	line := lineitemRows(env.seed, serveLineitem)
	ci, err := writeInput(dir, "customer", "jsonl", cust.Rows)
	if err != nil {
		return nil, err
	}
	li, err := writeInput(dir, "lineitem", "csv", line)
	if err != nil {
		return nil, err
	}
	s := &serveEnv{tr: env.tr, inputs: []inputInfo{ci, li}, maxKey: int64(len(cust.Rows))}
	s.srcRows = [nKinds]int{ci.Rows, ci.Rows, ci.Rows, li.Rows}
	open := func() (*cleandb.DB, error) {
		db := cleandb.Open()
		db.RegisterJSONFile("customer", ci.path)
		db.RegisterCSVFile("lineitem", li.path)
		for _, name := range []string{"customer", "lineitem"} {
			if err := db.Load(context.Background(), name); err != nil {
				return nil, err
			}
		}
		return db, nil
	}
	if s.db, err = open(); err != nil {
		return nil, err
	}
	if s.ref, err = open(); err != nil {
		return nil, err
	}
	srv := server.New(s.db, server.Config{})
	inner := srv.Handler()
	// The server is timed by wrapping its handler, never its ResponseWriter:
	// a writer wrapper that hid Flush would turn streaming off.
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := r.Header.Get("Cleanbench-Kind")
		if s.tr == nil || kind == "" {
			inner.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get("Cleanbench-Req"), 10, 64)
		sp := s.tr.begin("server.handler."+kind, -1, id)
		inner.ServeHTTP(w, r)
		s.tr.end(sp)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: handler}
	go s.srv.Serve(ln)
	s.base = "http://" + ln.Addr().String()
	workers := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers,
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
	}}
	body, _ := json.Marshal(map[string]string{"query": pointQuery})
	resp, err := s.client.Post(s.base+"/v1/statements", "application/json", bytes.NewReader(body))
	if err != nil {
		s.close()
		return nil, err
	}
	var st struct {
		Handle string `json:"handle"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Handle == "" {
		s.close()
		return nil, fmt.Errorf("prepare point statement: %v (status %d)", err, resp.StatusCode)
	}
	s.handle = st.Handle
	// Warm-up: every kind a few times, so connections, plans and lazy
	// runtime state exist before timing begins.
	rng := rand.New(rand.NewSource(env.seed))
	for i := 0; i < 40; i++ {
		r := s.do(context.Background(), s.draw(rng, i%nKinds), false)
		if r.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", kindNames[r.req.kind], r.err)
		}
	}
	return s, nil
}

func (s *serveEnv) draw(rng *rand.Rand, kind int) request {
	r := request{kind: kind}
	switch kind {
	case kindPoint, kindAdhoc:
		r.arg = rng.Int63n(s.maxKey) + 1
	case kindFD:
		r.arg = rng.Int63n(25)
	}
	return r
}

// httpRequest builds the HTTP request of r.
func (s *serveEnv) httpRequest(ctx context.Context, r request) (*http.Request, error) {
	var url, accept string
	var body any
	switch r.kind {
	case kindPoint:
		url, accept = s.base+"/v1/statements/"+s.handle, "application/x-ndjson"
		body = map[string]any{"params": map[string]any{"k": r.arg}}
	case kindAdhoc:
		url, accept = s.base+"/v1/query", "application/x-ndjson"
		body = map[string]any{"query": adhocQuery(r.arg)}
	case kindFD:
		url, accept = s.base+"/v1/query", "text/csv"
		body = map[string]any{"query": fdQuery, "params": map[string]any{"n": r.arg}}
	case kindRepair:
		url, accept = s.base+"/v1/query?include=repairs", "application/json"
		body = map[string]any{"query": serveRepairQuery()}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", accept)
	return req, nil
}

// do sends r and reads the whole response. traced attaches httptrace to
// time the first byte.
func (s *serveEnv) do(ctx context.Context, r request, traced bool) response {
	out := response{req: r, id: s.nextID.Add(1)}
	req, err := s.httpRequest(ctx, r)
	if err != nil {
		out.err = err
		return out
	}
	if s.tr != nil {
		req.Header.Set("Cleanbench-Kind", kindNames[r.kind])
		req.Header.Set("Cleanbench-Req", strconv.FormatInt(out.id, 10))
	}
	sent := time.Now()
	var first time.Time
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if traced && !first.IsZero() {
		out.ttfb = first.Sub(sent)
		out.stream = end.Sub(first)
	}
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return out
	}
	out.size = len(body)
	out.bodyRows, out.bodyErr = bodyRows(r.kind, body)
	if s.sampled[r.kind].Add(1) <= digestSamples {
		out.body = body
	}
	if r.kind == kindRepair {
		var env struct {
			RowCount int `json:"row_count"`
			Metrics  struct {
				SimTicks    int64 `json:"sim_ticks"`
				Comparisons int64 `json:"comparisons"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			out.err = fmt.Errorf("decode envelope: %w", err)
			return out
		}
		out.rows, out.comparisons, out.ticks = int64(env.RowCount), env.Metrics.Comparisons, env.Metrics.SimTicks
		out.trailerRows = strconv.Itoa(env.RowCount)
		return out
	}
	out.trailerRows = resp.Trailer.Get("Cleandb-Row-Count")
	out.rows, err = strconv.ParseInt(out.trailerRows, 10, 64)
	if err != nil {
		out.err = fmt.Errorf("row-count trailer %q: %w", out.trailerRows, err)
	}
	out.comparisons, _ = strconv.ParseInt(resp.Trailer.Get("Cleandb-Comparisons"), 10, 64)
	out.ticks, _ = strconv.ParseInt(resp.Trailer.Get("Cleandb-Sim-Ticks"), 10, 64)
	return out
}

// bodyRows counts the rows in a response body: NDJSON lines, CSV lines
// after the header, or the envelope's rows array.
func bodyRows(kind int, body []byte) (int64, error) {
	switch kind {
	case kindRepair:
		var env struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return 0, err
		}
		return int64(len(env.Rows)), nil
	case kindFD:
		n := int64(bytes.Count(body, []byte{'\n'}))
		if n > 0 {
			n-- // header
		}
		return n, nil
	default:
		return int64(bytes.Count(body, []byte{'\n'})), nil
	}
}

// openLoop sends the requests on their schedule from at most nproc
// goroutines, each waiting for its response before taking the next
// request. A request is timed from when it was due, so a stall counts
// against every request queued behind it.
//
// A non-zero until stops the loop there, leaving the remaining requests
// unsent (their responses are zero).
func (s *serveEnv) openLoop(reqs []request, traced bool, until time.Time) []response {
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || (!until.IsZero() && time.Now().After(until)) {
					return
				}
				due := start.Add(reqs[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				r := s.do(context.Background(), reqs[i], traced)
				r.late = sent.Sub(due)
				r.latency = time.Since(due)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// schedule plans the requests of d seconds at rate per second; their
// arguments are drawn from the seeded rng.
func (s *serveEnv) schedule(rng *rand.Rand, rate float64, d time.Duration) []request {
	reqs := make([]request, int(rate*d.Seconds()))
	for i := range reqs {
		reqs[i] = s.draw(rng, kindBlock[i%len(kindBlock)])
		reqs[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return reqs
}

// meets reports whether a probe met the latency limit with no growing
// backlog: every request succeeded, p99 is within the limit, and the
// generator kept up to the end.
func meets(rs []response) bool {
	if len(rs) == 0 {
		return false
	}
	lat := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.err != nil {
			return false
		}
		lat = append(lat, ms(r.latency.Nanoseconds()))
	}
	tail := rs[len(rs)*9/10:]
	late := make([]float64, len(tail))
	for i, r := range tail {
		late[i] = ms(r.late.Nanoseconds())
	}
	return quantile(lat, 0.99) <= serveLimitMs && median(late) <= serveLimitMs/2
}

// searchMaxQPS finds the highest offered rate that meets the limit. It
// first measures the client's capacity: the rate at which its connections
// complete the mix when each sends its next request as soon as the last one
// returns. No open loop can go faster without a growing backlog. It then
// offers 95%, 90%, ... of that capacity until a rate meets the limit, and
// bisects between that rate and the last one that failed until the budget
// is spent, so the resolution is at most 5% of the capacity.
func (s *serveEnv) searchMaxQPS(rng *rand.Rand, budget time.Duration) (qps, capacity float64, probes int, all []response) {
	deadline := time.Now().Add(budget)
	capDur := budget / 4
	burst := make([]request, 20000)
	for i := range burst {
		burst[i] = s.draw(rng, kindBlock[i%len(kindBlock)])
	}
	t := time.Now()
	done := 0
	for _, r := range s.openLoop(burst, false, t.Add(capDur)) {
		if r.id != 0 {
			done++
			all = append(all, r)
		}
	}
	capacity = float64(done) / time.Since(t).Seconds()
	probe := (budget - capDur) / 6
	lo, hi := 0.0, 1.0 // fractions of capacity: lo met the limit, hi did not
	for f := 0.95; f > 0.01; probes++ {
		if lo > 0 && time.Until(deadline) < probe/2 {
			break
		}
		rs := s.openLoop(s.schedule(rng, f*capacity, probe), false, time.Time{})
		all = append(all, rs...)
		if meets(rs) {
			lo = f
		} else {
			hi = f
		}
		if lo == 0 {
			f -= 0.05
		} else {
			f = (lo + hi) / 2
		}
	}
	return lo * capacity, capacity, probes, all
}

func runServeMix(env *runEnv) (*report, error) {
	rep := newReport("row_count_trailer", "digest.point", "digest.adhoc", "digest.fd", "digest.repair")
	s, err := setUp(env, rep, func(dir string) (*serveEnv, error) { return setupServe(env, dir) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.inputs = s.inputs

	rng := rand.New(rand.NewSource(env.seed*31 + 7))
	plan0 := s.db.PlanCacheStats()
	fixedDur := time.Duration(env.seconds * serveFixedShare * float64(time.Second))
	for k := range s.sampled {
		s.sampled[k].Store(0) // sample measured responses, not warm-up ones
	}
	fixed := s.openLoop(s.schedule(rng, serveRate, fixedDur), env.tr != nil, time.Time{})
	plan1 := s.db.PlanCacheStats()
	qps, capacity, probes, searched := s.searchMaxQPS(rng, time.Duration(env.seconds*(1-serveFixedShare)*float64(time.Second)))
	rep.peakRSSMB = peakRSSMB()

	// Output checks: the row-count trailer against the body on every
	// response, and response digests against a reference DB on a sample of
	// each kind.
	var rejected int64
	for _, group := range [][]response{fixed, searched} {
		for _, r := range group {
			rep.attempted++
			if r.status == http.StatusTooManyRequests {
				rejected++
			}
			if r.err != nil {
				rep.fail(kindNames[r.req.kind], r.err)
				continue
			}
			rep.check("row_count_trailer", r.bodyErr == nil && r.bodyRows == r.rows,
				"%s: trailer %q, body %d rows (%v)", kindNames[r.req.kind], r.trailerRows, r.bodyRows, r.bodyErr)
			if r.body != nil {
				ok, why := s.verify(r)
				rep.check("digest."+kindNames[r.req.kind], ok, "%s", why)
			}
		}
	}

	var lat, late, rowsPerS []float64
	for _, r := range fixed {
		if r.err != nil {
			continue
		}
		l := ms(r.latency.Nanoseconds())
		lat = append(lat, l)
		late = append(late, ms(r.late.Nanoseconds()))
		rowsPerS = append(rowsPerS, float64(s.srcRows[r.req.kind])/(l/1e3))
	}
	rep.p50Ms, rep.p50N = median(lat), len(lat)
	rep.rowsPerS = median(rowsPerS)
	rep.add("latency_p50_ms", rep.p50Ms, "ms", len(lat))
	rep.add("latency_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	for k, name := range kindNames {
		var kl []float64
		for _, r := range fixed {
			if r.err == nil && r.req.kind == k {
				kl = append(kl, ms(r.latency.Nanoseconds()))
			}
		}
		rep.add("latency_p50_ms."+name, median(kl), "ms", len(kl))
	}
	rep.add("offered_rate", serveRate, "req/s", len(fixed))
	rep.add("max_qps", qps, "req/s", probes)
	rep.add("client_capacity", capacity, "req/s", 0)
	rep.add("max_qps_p99_limit", serveLimitMs, "ms", 0)
	rep.add("clean_rows_per_s", rep.rowsPerS, "rows/s", len(rowsPerS))

	if env.tr != nil {
		ix := indexSpans(env.tr.snapshot())
		for _, k := range kindNames {
			v, n := ix.durMs("server.handler." + k)
			rep.setLayer("server.handler_ms."+k, v, n)
		}
		var ttfb, stream, bytesPer, comps, ticks []float64
		for _, r := range fixed {
			if r.err != nil {
				continue
			}
			ttfb = append(ttfb, ms(r.ttfb.Nanoseconds()))
			stream = append(stream, ms(r.stream.Nanoseconds()))
			bytesPer = append(bytesPer, float64(r.size))
			comps = append(comps, float64(r.comparisons))
			ticks = append(ticks, float64(r.ticks))
		}
		rep.setLayer("server.ttfb_p50_ms", median(ttfb), len(ttfb))
		rep.setLayer("server.stream_p50_ms", median(stream), len(stream))
		rep.setLayer("server.resp_bytes", sum(bytesPer)/float64(max(len(bytesPer), 1)), len(bytesPer))
		rep.setLayer("server.rejected_429", float64(rejected), rep.p50N)
		rep.setLayer("loadgen.late_p99_ms", quantile(late, 0.99), len(late))
		rep.setLayer("exec.comparisons", sum(comps)/float64(max(len(comps), 1)), len(comps))
		rep.setLayer("exec.simticks", sum(ticks)/float64(max(len(ticks), 1)), len(ticks))
		rep.setLayer("cleandb.plancache_hit_ratio",
			ratio(float64(plan1.Hits-plan0.Hits), float64(plan1.Hits+plan1.Misses-plan0.Hits-plan0.Misses)), len(fixed))
		v, a, n := coldPrepare(s.db, env.tr, rng, func(r *rand.Rand) string { return adhocQuery(r.Int63n(s.maxKey) + 1e6) })
		rep.setLayer("core.prepare_ms", v, n)
		rep.setLayer("core.prepare_alloc_mb", a, n)
	}
	// A fixed probe for the traced/untraced counter comparison: the repair
	// statement's execution counters on the reference DB.
	res, err := s.ref.QueryContext(context.Background(), serveRepairQuery())
	if err != nil {
		return nil, err
	}
	addCounters(rep.counters, "repair", res.Metrics())
	return rep, nil
}

// coldPrepare times PrepareStmt on fresh statement texts over loaded
// sources: the planning cost every plan-cache miss pays. It returns the
// median milliseconds and MB allocated per prepare.
func coldPrepare(db *cleandb.DB, tr *tracer, rng *rand.Rand, query func(*rand.Rand) string) (float64, float64, int) {
	var d, a []float64
	for i := 0; i < 50; i++ {
		q := query(rng)
		id := tr.beginAlloc("core.prepare", -1, int64(-100-i))
		_, err := db.PrepareStmt(q)
		tr.end(id)
		if err != nil {
			continue
		}
		sp := tr.snapshot()[id]
		d = append(d, ms(sp.dur()))
		a = append(a, float64(sp.Alloc)/mib)
	}
	return median(d), median(a), len(d)
}

// verify compares a response with the reference DB's answer to the same
// statement, as order-insensitive canonical row sets.
func (s *serveEnv) verify(r response) (bool, string) {
	ctx := context.Background()
	kind := kindNames[r.req.kind]
	var q string
	var args []any
	switch r.req.kind {
	case kindPoint:
		q, args = pointQuery, []any{cleandb.Named("k", r.req.arg)}
	case kindAdhoc:
		q = adhocQuery(r.req.arg)
	case kindFD:
		q, args = fdQuery, []any{cleandb.Named("n", r.req.arg)}
	case kindRepair:
		q = serveRepairQuery()
	}
	want, err := s.ref.QueryContext(ctx, q, args...)
	if err != nil {
		return false, fmt.Sprintf("%s: reference: %v", kind, err)
	}
	var got, exp []string
	switch r.req.kind {
	case kindFD:
		var buf bytes.Buffer
		if err := data.WriteCSV(&buf, want.Rows()); err != nil {
			return false, err.Error()
		}
		got, exp = csvLines(r.body), csvLines(buf.Bytes())
	case kindRepair:
		var env struct {
			Rows    []json.RawMessage `json:"rows"`
			Repairs []struct {
				Changed int64 `json:"changed"`
			} `json:"repairs"`
		}
		if err := json.Unmarshal(r.body, &env); err != nil {
			return false, err.Error()
		}
		var changed, wantChanged int64
		for _, rp := range env.Repairs {
			changed += rp.Changed
		}
		for _, rp := range want.Repairs() {
			wantChanged += rp.Changed
		}
		if changed != wantChanged {
			return false, fmt.Sprintf("repair: %d values changed, reference %d", changed, wantChanged)
		}
		for _, raw := range env.Rows {
			got = append(got, canonJSON(raw))
		}
		exp = jsonRows(want.Rows())
	default:
		for _, l := range bytes.Split(bytes.TrimSuffix(r.body, []byte{'\n'}), []byte{'\n'}) {
			if len(l) > 0 {
				got = append(got, canonJSON(l))
			}
		}
		exp = jsonRows(want.Rows())
	}
	sort.Strings(got)
	sort.Strings(exp)
	if !equalStrings(got, exp) {
		return false, fmt.Sprintf("%s arg %d: %d rows differ from the reference's %d", kind, r.req.arg, len(got), len(exp))
	}
	return true, ""
}

func jsonRows(rows []cleandb.Value) []string {
	out := make([]string, len(rows))
	for i, v := range rows {
		b, _ := json.Marshal(data.ToJSON(v))
		out[i] = canonJSON(b)
	}
	return out
}

// canonJSON re-encodes a JSON document with sorted keys and exact numbers.
func canonJSON(b []byte) string {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "invalid:" + string(b)
	}
	out, _ := json.Marshal(v)
	return string(out)
}

// csvLines returns a CSV body's header followed by its sorted data lines.
func csvLines(b []byte) []string {
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil
	}
	return lines
}
