package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cleandb"
)

// incr_append: writes beside reads on a view-cached DB. Each cycle appends a
// small batch to lineitem (alternating Append and AppendCSV) and to customer
// (AppendJSONL), then re-queries a DENIAL detect and an attribute DEDUP,
// which the view cache serves as deltas, and an FD, which always runs cold.
const (
	incrLineitem  = 10000
	incrCustomers = 1250
	// Rows appended per cycle.
	incrLineBatch = 10
	incrCustBatch = 4
	// incrMaxCycles bounds the pre-generated append batches.
	incrMaxCycles = 1500
)

var incrBand = dcBand{t1: 905, t2: 1200}

type incrStmt struct {
	name, query string
	// want is the view-cache classification the mix intends for every
	// re-query after an append: "delta" or "" (cold).
	want string
}

func incrStatements() []incrStmt {
	return []incrStmt{
		{"dc", dcQuery(incrBand), "delta"},
		{"dedup", `SELECT * FROM customer c DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`, "delta"},
		{"fd", `SELECT * FROM lineitem t1 FD(t1.orderkey, t1.suppkey)`, ""},
	}
}

type incrEnv struct {
	db        *cleandb.DB
	inputs    []inputInfo
	lineBatch [][]cleandb.Value
	lineCSV   [][]byte
	custJSONL [][]byte
}

func setupIncr(ctx context.Context, env *runEnv, dir string) (*incrEnv, error) {
	line := lineitemRows(env.seed, incrLineitem+incrMaxCycles*incrLineBatch)
	cust := customerData(env.seed, incrCustomers).Rows
	custBase := len(cust) * 4 / 5
	li, err := writeInput(dir, "lineitem", "csv", line[:incrLineitem])
	if err != nil {
		return nil, err
	}
	ci, err := writeInput(dir, "customer", "jsonl", cust[:custBase])
	if err != nil {
		return nil, err
	}
	e := &incrEnv{inputs: []inputInfo{li, ci}}
	for c := 0; c < incrMaxCycles; c++ {
		lo := incrLineitem + c*incrLineBatch
		batch := line[lo : lo+incrLineBatch]
		e.lineBatch = append(e.lineBatch, batch)
		p, err := csvPayload(batch)
		if err != nil {
			return nil, err
		}
		e.lineCSV = append(e.lineCSV, p)
		// Customer batches cycle through the held-back fifth of the rows;
		// a re-appended customer is one more duplicate to detect.
		tail := cust[custBase:]
		var cb []cleandb.Value
		for i := 0; i < incrCustBatch; i++ {
			cb = append(cb, tail[(c*incrCustBatch+i)%len(tail)])
		}
		j, err := jsonlPayload(cb)
		if err != nil {
			return nil, err
		}
		e.custJSONL = append(e.custJSONL, j)
	}
	e.db = cleandb.Open(cleandb.WithViewCache(16))
	e.db.RegisterCSVFile("lineitem", li.path)
	e.db.RegisterJSONFile("customer", ci.path)
	for _, name := range []string{"lineitem", "customer"} {
		if err := e.db.Load(ctx, name); err != nil {
			return nil, err
		}
	}
	// Warm the views and plans.
	for _, s := range incrStatements() {
		if _, err := e.db.QueryContext(ctx, s.query); err != nil {
			return nil, fmt.Errorf("warm %s: %w", s.name, err)
		}
	}
	return e, nil
}

// appendCycle appends cycle c's batches, timing each call.
func (e *incrEnv) appendCycle(tr *tracer, c int) ([]time.Duration, error) {
	var out []time.Duration
	timed := func(f func() error) error {
		id := tr.begin("source.append", -1, int64(c))
		t := time.Now()
		err := f()
		out = append(out, time.Since(t))
		tr.end(id)
		return err
	}
	err := timed(func() error {
		if c%2 == 0 {
			return e.db.Append("lineitem", e.lineBatch[c])
		}
		return e.db.AppendCSV("lineitem", e.lineCSV[c])
	})
	if err != nil {
		return out, fmt.Errorf("append lineitem: %w", err)
	}
	if err := timed(func() error { return e.db.AppendJSONL("customer", e.custJSONL[c]) }); err != nil {
		return out, fmt.Errorf("append customer: %w", err)
	}
	return out, nil
}

func runIncrAppend(env *runEnv) (*report, error) {
	ctx := context.Background()
	rep := newReport("view_classification", "view_equals_cold")
	stmts := incrStatements()
	e, err := setUp(env, rep, func(dir string) (*incrEnv, error) { return setupIncr(ctx, env, dir) }, nil)
	if err != nil {
		return nil, err
	}
	rep.inputs = e.inputs

	tr := env.tr
	plan0, view0 := e.db.PlanCacheStats(), e.db.ViewCacheStats()
	var appendMs, requeryMs, cycleMs, deltaMs, coldMs []float64
	var eligible, served int
	cycles := 0
	start := time.Now()
	for c := 0; c < incrMaxCycles && (c == 0 || time.Since(start).Seconds() < env.seconds); c++ {
		t := time.Now()
		ds, err := e.appendCycle(tr, c)
		rep.attempted += 2
		for _, d := range ds {
			appendMs = append(appendMs, ms(d.Nanoseconds()))
		}
		if err != nil {
			rep.fail(fmt.Sprintf("cycle %d", c), err)
			continue
		}
		for _, s := range stmts {
			id := tr.beginAlloc("incr.requery", -1, int64(c))
			qt := time.Now()
			res, err := e.db.QueryContext(ctx, s.query)
			d := ms(time.Since(qt).Nanoseconds())
			tr.end(id)
			rep.attempted++
			if err != nil {
				rep.fail(fmt.Sprintf("cycle %d %s", c, s.name), err)
				continue
			}
			requeryMs = append(requeryMs, d)
			if c == 0 {
				addCounters(rep.counters, s.name, res.Metrics())
			}
			hit := res.ViewHit()
			rep.check("view_classification", hit == s.want, "cycle %d %s: view hit %q, want %q", c, s.name, hit, s.want)
			if s.want == "delta" {
				eligible++
			}
			if hit == "delta" {
				served++
				deltaMs = append(deltaMs, d)
			} else if hit == "" {
				coldMs = append(coldMs, d)
			}
		}
		cycleMs = append(cycleMs, ms(time.Since(t).Nanoseconds()))
		cycles++
	}
	elapsed := time.Since(start).Seconds()
	rep.peakRSSMB = peakRSSMB()
	plan1, view1 := e.db.PlanCacheStats(), e.db.ViewCacheStats()

	// Every view the run served must equal a cold re-clean of the same final
	// rows in a fresh DB.
	fresh := cleandb.Open()
	for _, name := range []string{"lineitem", "customer"} {
		rows, err := e.db.Rows(name)
		if err != nil {
			return nil, err
		}
		fresh.RegisterRows(name, rows)
	}
	for _, s := range stmts {
		got, err := e.db.QueryContext(ctx, s.query)
		if err != nil {
			rep.check("view_equals_cold", false, "%s: %v", s.name, err)
			continue
		}
		want, err := fresh.QueryContext(ctx, s.query)
		if err != nil {
			rep.check("view_equals_cold", false, "%s cold: %v", s.name, err)
			continue
		}
		rep.check("view_equals_cold", equalStrings(canonRows(got.Rows()), canonRows(want.Rows())),
			"%s: view has %d rows, cold re-clean %d", s.name, got.RowCount(), want.RowCount())
	}

	if len(requeryMs) == 0 {
		return rep, nil
	}
	appended := float64(incrLineBatch + incrCustBatch)
	rep.p50Ms, rep.p50N = median(requeryMs), len(requeryMs)
	rep.rowsPerS = appended / (median(cycleMs) / 1e3)
	rep.add("append_p50_ms", median(appendMs), "ms", len(appendMs))
	rep.add("requery_p50_ms", rep.p50Ms, "ms", len(requeryMs))
	rep.add("requery_p90_ms", quantile(requeryMs, 0.9), "ms", len(requeryMs))
	rep.add("cycle_p50_ms", median(cycleMs), "ms", len(cycleMs))
	rep.add("clean_rows_per_s", rep.rowsPerS, "rows/s", len(cycleMs))
	rep.add("calls_per_s", float64(cycles*(2+len(stmts)))/elapsed, "req/s", cycles*(2+len(stmts)))

	if tr != nil {
		ix := indexSpans(tr.snapshot())
		ad := ix.each("source.append", func(s span) float64 { return ms(s.dur()) })
		rep.setLayer("source.append_ms", median(ad), len(ad))
		rep.setLayer("incr.requery_ms.delta", median(deltaMs), len(deltaMs))
		rep.setLayer("incr.requery_ms.cold", median(coldMs), len(coldMs))
		rep.setLayer("incr.delta_share", ratio(float64(served), float64(eligible)), eligible)
		ra := ix.each("incr.requery", func(s span) float64 { return float64(s.Alloc) / mib })
		rep.setLayer("incr.requery_alloc_mb", median(ra), len(ra))
		vh := float64(view1.Hits + view1.DeltaHits - view0.Hits - view0.DeltaHits)
		vl := vh + float64(view1.Misses-view0.Misses)
		rep.setLayer("cleandb.viewcache_hit_ratio", ratio(vh, vl), int(vl))
		ph := float64(plan1.Hits - plan0.Hits)
		rep.setLayer("cleandb.plancache_hit_ratio", ratio(ph, ph+float64(plan1.Misses-plan0.Misses)), len(requeryMs))
		rng := rand.New(rand.NewSource(env.seed))
		pv, pa, pn := coldPrepare(e.db, tr, rng, func(r *rand.Rand) string {
			return dcQuery(dcBand{t1: incrBand.t1 + float64(r.Intn(1e6))/1e3, t2: incrBand.t2})
		})
		rep.setLayer("core.prepare_ms", pv, pn)
		rep.setLayer("core.prepare_alloc_mb", pa, pn)
	}
	return rep, nil
}
