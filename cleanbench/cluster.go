package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cleandb"
	"cleandb/internal/dist"
)

// cluster_dc: a coordinator and one worker in one process over loopback
// HTTP, with partitioned custody over a CSV lineitem. Each pass runs a DENIAL
// REPAIR and a customer⋈lineitem equijoin as distributed sessions.
const (
	clusterLineitem  = 10000
	clusterCustomers = 1250
)

var clusterBand = dcBand{t1: 910, t2: 1400}

func clusterStatements() []stmtDef {
	return []stmtDef{
		{"dc_repair", dcQuery(clusterBand) + "\nREPAIR(t1.discount)"},
		{"join", `SELECT c.name AS n, o.orderkey AS ok FROM customer c, lineitem o WHERE c.custkey = o.suppkey and o.discount > 0.05`},
	}
}

// exchangeStats counts the coordinator's exchange endpoint traffic.
type exchangeStats struct {
	calls, reqBytes, respBytes atomic.Int64
}

type clusterEnv struct {
	coordDB *cleandb.DB
	coord   *dist.Coordinator
	servers []*http.Server
	inputs  []inputInfo
	inBytes int64
	inRows  int
	want    map[string]string // statement -> single-process answer digest
	ex      exchangeStats
	pass    atomic.Int64 // current pass, for spans of the HTTP handlers
	tr      *tracer
}

func (c *clusterEnv) close() {
	c.coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range c.servers {
		s.Shutdown(ctx)
	}
}

// serve starts h on a loopback listener and returns its base URL.
func (c *clusterEnv) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s := &http.Server{Handler: h}
	c.servers = append(c.servers, s)
	go s.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// countingWriter counts response bytes. It forwards Flush and unwraps, so
// the handler behind it streams exactly as it would without it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n.Add(int64(n))
	return n, err
}

func setupCluster(ctx context.Context, env *runEnv, dir string) (*clusterEnv, error) {
	cust := customerData(env.seed, clusterCustomers).Rows
	li, err := writeInput(dir, "lineitem", "csv", lineitemRows(env.seed, clusterLineitem))
	if err != nil {
		return nil, err
	}
	ci, err := writeInput(dir, "customer", "csv", cust)
	if err != nil {
		return nil, err
	}
	c := &clusterEnv{inputs: []inputInfo{li, ci}, tr: env.tr, want: map[string]string{}}
	c.inBytes, c.inRows = li.Bytes+ci.Bytes, li.Rows+ci.Rows
	open := func() *cleandb.DB { return cleandb.Open(cleandb.WithWorkers(runtime.NumCPU())) }

	// The single-process answers every distributed pass must reproduce.
	single := open()
	for _, in := range c.inputs {
		if err := single.RegisterFile(in.Source, in.path); err != nil {
			return nil, err
		}
	}
	for _, s := range clusterStatements() {
		res, err := single.QueryContext(ctx, s.query)
		if err != nil {
			return nil, fmt.Errorf("single-process %s: %w", s.name, err)
		}
		c.want[s.name] = answerDigest(res)
	}

	c.coordDB = open()
	for _, in := range c.inputs {
		if err := c.coordDB.RegisterFile(in.Source, in.path); err != nil {
			return nil, err
		}
	}
	c.coord = dist.NewCoordinator(c.coordDB, dist.Config{Custody: dist.CustodyPartitioned})
	cmux := http.NewServeMux()
	cmux.HandleFunc("POST /v1/cluster/register", c.coord.HandleRegister)
	cmux.HandleFunc("POST /v1/cluster/exchange", func(w http.ResponseWriter, r *http.Request) {
		id := c.tr.begin("dist.exchange", -1, c.pass.Load())
		c.ex.calls.Add(1)
		r.Body = countingReader{r.Body, &c.ex.reqBytes}
		cw := &countingWriter{ResponseWriter: w}
		c.coord.HandleExchange(cw, r)
		c.ex.respBytes.Add(cw.n)
		c.tr.end(id)
	})
	coordURL, err := c.serve(cmux)
	if err != nil {
		c.coord.Close()
		return nil, err
	}
	c.coord.SetAdvertiseURL(coordURL)

	workerDB := open()
	wk := dist.NewWorker(workerDB)
	wmux := http.NewServeMux()
	wmux.HandleFunc("POST /v1/cluster/fragment", func(w http.ResponseWriter, r *http.Request) {
		id := c.tr.begin("dist.fragment", -1, c.pass.Load())
		wk.HandleFragment(w, r)
		c.tr.end(id)
	})
	wmux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	workerURL, err := c.serve(wmux)
	if err != nil {
		c.close()
		return nil, err
	}
	body, _ := json.Marshal(map[string]string{"url": workerURL, "fingerprint": wk.Fingerprint()})
	resp, err := http.Post(coordURL+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		c.close()
		return nil, err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.close()
		return nil, fmt.Errorf("register worker: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	// Warm pass: the custody loads happen in the first session.
	if _, err := c.runPass(ctx, -1); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// answerDigest is an order-insensitive digest of a statement's answer: its
// rows and, for a repair, the repaired rows.
func answerDigest(res *cleandb.Result) string {
	d := strings.Join(canonRows(res.Rows()), "\n")
	if rr := res.RepairedRows("lineitem"); rr != nil {
		d += "\nrepaired:\n" + strings.Join(canonRows(rr), "\n")
	}
	return d
}

type clusterStmtOutcome struct {
	res   *cleandb.Result
	frags []dist.FragmentResult
	slots int64 // the coordinator's executed join slots
}

func (c *clusterEnv) runPass(ctx context.Context, pass int64) (map[string]clusterStmtOutcome, error) {
	c.pass.Store(pass)
	root := c.tr.begin("pass", -1, pass)
	defer c.tr.end(root)
	out := map[string]clusterStmtOutcome{}
	for _, s := range clusterStatements() {
		id := c.tr.beginAlloc("dist.session", root, pass)
		sess := c.coord.StartSession(ctx, s.query, nil)
		if sess == nil {
			c.tr.end(id)
			return nil, fmt.Errorf("%s: the coordinator declined a distributed session", s.name)
		}
		res, err := c.coordDB.QueryContext(sess.Attach(ctx), s.query)
		frags := sess.Finish()
		slots := sess.ExecSlots()
		sess.Close()
		c.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		for _, f := range frags {
			if f.Err != "" {
				return nil, fmt.Errorf("%s: worker %s: %s", s.name, f.Worker, f.Err)
			}
		}
		out[s.name] = clusterStmtOutcome{res: res, frags: frags, slots: slots}
	}
	return out, nil
}

func runClusterDC(env *runEnv) (*report, error) {
	ctx := context.Background()
	rep := newReport("answer_equals_single", "worker_took_part")
	c, err := setUp(env, rep, func(dir string) (*clusterEnv, error) { return setupCluster(ctx, env, dir) }, (*clusterEnv).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	rep.inputs = c.inputs
	stmts := clusterStatements()

	var passMs []float64
	var first map[string]clusterStmtOutcome
	type perPass struct {
		calls, reqB, respB int64
		coordSlots, wSlots int64
		owned              int64
	}
	var pp []perPass
	start := time.Now()
	for pass := int64(0); pass == 0 || time.Since(start).Seconds() < env.seconds; pass++ {
		calls0, req0, resp0 := c.ex.calls.Load(), c.ex.reqBytes.Load(), c.ex.respBytes.Load()
		t := time.Now()
		po, err := c.runPass(ctx, pass)
		d := time.Since(t)
		rep.attempted += int64(len(stmts))
		if err != nil {
			rep.fail(fmt.Sprintf("pass %d", pass), err)
			continue
		}
		passMs = append(passMs, ms(d.Nanoseconds()))
		p := perPass{calls: c.ex.calls.Load() - calls0, reqB: c.ex.reqBytes.Load() - req0, respB: c.ex.respBytes.Load() - resp0}
		for _, s := range stmts {
			o := po[s.name]
			got := answerDigest(o.res)
			rep.check("answer_equals_single", got == c.want[s.name], "pass %d %s: cluster answer differs from single-process", pass, s.name)
			rep.check("worker_took_part", len(o.frags) == 1, "pass %d %s: %d worker fragments", pass, s.name, len(o.frags))
			p.coordSlots += o.slots
			for _, f := range o.frags {
				p.wSlots += f.ExecSlots
				p.owned = max(p.owned, f.OwnedBytes)
			}
		}
		pp = append(pp, p)
		if first == nil {
			first = po
			for _, s := range stmts {
				addCounters(rep.counters, s.name, po[s.name].res.Metrics())
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	rep.peakRSSMB = peakRSSMB()
	if len(passMs) == 0 {
		return rep, nil
	}
	p50 := median(passMs)
	rep.p50Ms, rep.p50N = p50, len(passMs)
	rep.rowsPerS = float64(c.inRows) / (p50 / 1e3)
	rep.add("clean_rows_per_s", rep.rowsPerS, "rows/s", len(passMs))
	rep.add("pass_p50_ms", p50, "ms", len(passMs))
	rep.add("statements_per_s", float64(len(stmts)*len(passMs))/elapsed, "req/s", len(passMs)*len(stmts))
	rep.add("input_rows_per_pass", float64(c.inRows), "rows", 0)

	if c.tr != nil {
		ix := indexSpans(c.tr.snapshot())
		v, n := ix.durMs("dist.session")
		rep.setLayer("dist.session_ms", v, n)
		v, n = ix.durMs("dist.exchange")
		rep.setLayer("dist.exchange_handler_ms", v, n)
		v, n = ix.durMs("dist.fragment")
		rep.setLayer("dist.fragment_ms", v, n)
		var calls, reqMB, respMB, cs, ws, owned []float64
		for _, p := range pp {
			calls = append(calls, float64(p.calls))
			reqMB = append(reqMB, float64(p.reqB)/mib)
			respMB = append(respMB, float64(p.respB)/mib)
			cs = append(cs, float64(p.coordSlots))
			ws = append(ws, float64(p.wSlots))
			owned = append(owned, float64(p.owned)/float64(c.inBytes))
		}
		rep.setLayer("dist.exchange_calls", median(calls), len(calls))
		rep.setLayer("dist.exchange_req_mb", median(reqMB), len(reqMB))
		rep.setLayer("dist.exchange_resp_mb", median(respMB), len(respMB))
		rep.setLayer("dist.exec_slots.coord", median(cs), len(cs))
		rep.setLayer("dist.exec_slots.worker", median(ws), len(ws))
		rep.setLayer("dist.owned_bytes_share", median(owned), len(owned))
		var comps, ticks, shuffled, batches, changed, rounds int64
		for _, s := range stmts {
			m := first[s.name].res.Metrics()
			comps += m.Comparisons
			ticks += m.SimTicks
			shuffled += m.ShuffledRecords
			batches += m.BatchesEvaluated
			for _, r := range first[s.name].res.Repairs() {
				changed += r.Changed
				rounds += int64(r.Rounds)
			}
		}
		rep.setLayer("exec.comparisons", float64(comps), 1)
		rep.setLayer("exec.simticks", float64(ticks), 1)
		rep.setLayer("exec.shuffled_records", float64(shuffled), 1)
		rep.setLayer("exec.batches_evaluated", float64(batches), 1)
		rep.setLayer("cleaning.repair_values_changed", float64(changed), 1)
		rep.setLayer("cleaning.repair_rounds", float64(rounds), 1)
	}
	return rep, nil
}
