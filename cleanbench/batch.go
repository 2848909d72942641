package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cleandb"
)

// clean_batch: cold batch cleaning of generated files, the paper's use case.
// Each pass opens a fresh DB over three files (lineitem as CSV, customer as
// JSONL, the clean-name dictionary as colbin), loads them, and runs four
// statements, each exported through a CSV file sink.
const (
	batchLineitem  = 10000
	batchCustomers = 400
)

// batchBand bounds both sides of the batch DC to the cheapest extended
// prices, about 0.1% of the items as t1 and 5% as t2, so the violating pairs
// stay in the low thousands.
var batchBand = dcBand{t1: 910, t2: 1400}

type stmtDef struct{ name, query string }

func batchStatements() []stmtDef {
	return []stmtDef{
		{"fd", `SELECT * FROM lineitem t1 FD(t1.orderkey, t1.suppkey)`},
		{"unified", `SELECT * FROM customer c
FD(c.address, prefix(c.phone))
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`},
		{"termval", `SELECT * FROM customer c, dictionary d CLUSTER BY(token_filtering, LD, 0.8, c.name)`},
		{"dc_repair", dcQuery(batchBand) + "\nREPAIR(t1.discount)"},
	}
}

// dcBand limits a denial constraint to items cheaper than t1 and t2 on
// either side of the pair.
type dcBand struct{ t1, t2 float64 }

// dcQuery is the band-limited denial constraint of the DC workloads: no
// cheaper item may carry a higher discount.
func dcQuery(b dcBand) string {
	return fmt.Sprintf(`SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < %.1f and t2.extendedprice < %.1f)`, b.t1, b.t2)
}

type batchInputs struct {
	files []inputInfo // lineitem.csv, customer.jsonl, dictionary.colbin
	rows  int
}

func setupBatchInputs(dir string, seed int64) (*batchInputs, error) {
	cust := customerData(seed, batchCustomers)
	in := &batchInputs{}
	for _, f := range []struct {
		source, format string
		rows           []cleandb.Value
	}{
		{"lineitem", "csv", lineitemRows(seed, batchLineitem)},
		{"customer", "jsonl", cust.Rows},
		{"dictionary", "colbin", dictionaryRows(cust)},
	} {
		info, err := writeInput(dir, f.source, f.format, f.rows)
		if err != nil {
			return nil, err
		}
		in.files = append(in.files, info)
		in.rows += info.Rows
	}
	return in, nil
}

// stmtOutcome is what one statement of a pass produced.
type stmtOutcome struct {
	m       cleandb.QueryMetrics
	sunk    int64 // rows the sink received
	bytes   int64 // exported file size
	changed int64
	rounds  int
	remain  int64
}

type passOutcome struct {
	stmts        map[string]stmtOutcome
	repairedPath string
	dictHits     int64
	dictMisses   int64
	plan         cleandb.CacheStats
}

// cleanPass runs one cold pass in its own DB.
func cleanPass(ctx context.Context, env *runEnv, in *batchInputs, stmts []stmtDef, pass int64, outDir string) (*passOutcome, error) {
	tr := env.tr
	root := tr.begin("pass", -1, pass)
	defer tr.end(root)
	db := cleandb.Open()
	for _, f := range in.files {
		switch f.Format {
		case "csv":
			db.RegisterCSVFile(f.Source, f.path)
		case "jsonl":
			db.RegisterJSONFile(f.Source, f.path)
		case "colbin":
			db.RegisterColbinFile(f.Source, f.path)
		}
	}
	for _, f := range in.files {
		id := tr.beginAlloc("source.load."+f.Format, root, pass)
		err := db.Load(ctx, f.Source)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	out := &passOutcome{stmts: map[string]stmtOutcome{}}
	dm := db.Metrics()
	out.dictHits, out.dictMisses = dm.DictHits, dm.DictMisses
	for _, s := range stmts {
		pid := tr.beginAlloc("core.prepare", root, pass)
		st, err := db.PrepareStmt(s.query)
		tr.end(pid)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", s.name, err)
		}
		path := filepath.Join(outDir, s.name+".csv")
		var stats sinkStats
		eid := tr.beginAlloc("exec."+s.name, root, pass)
		res, err := st.ExecuteTo(ctx, wrapSink(cleandb.NewCSVFileSink(path), tr, eid, pass, &stats))
		tr.end(eid)
		if err != nil {
			return nil, fmt.Errorf("execute %s: %w", s.name, err)
		}
		so := stmtOutcome{m: res.Metrics(), sunk: stats.rows.Load(), bytes: fileSize(path)}
		for _, r := range res.Repairs() {
			so.changed += r.Changed
			so.rounds += r.Rounds
			so.remain += r.Remaining
		}
		if len(res.Repairs()) > 0 {
			out.repairedPath = filepath.Join(outDir, "lineitem_repaired.csv")
			rid := tr.begin("export.repaired", root, pass)
			_, err := res.RepairedTo(ctx, "lineitem", wrapSink(cleandb.NewCSVFileSink(out.repairedPath), tr, rid, pass, &stats))
			tr.end(rid)
			if err != nil {
				return nil, fmt.Errorf("export repaired rows: %w", err)
			}
		}
		out.stmts[s.name] = so
	}
	out.plan = db.PlanCacheStats()
	return out, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return st.Size()
}

// checkRepairedExport re-runs the DC detection on the repaired export in a
// fresh DB: a complete repair leaves no violation.
func checkRepairedExport(ctx context.Context, rep *report, path string) {
	db := cleandb.Open()
	db.RegisterCSVFile("lineitem", path)
	res, err := db.QueryContext(ctx, dcQuery(batchBand))
	if err != nil {
		rep.check("dc_repaired_clean", false, "detect on repaired export: %v", err)
		return
	}
	rep.check("dc_repaired_clean", res.RowCount() == 0, "%d violations remain after repair", res.RowCount())
}

func runCleanBatch(env *runEnv) (*report, error) {
	ctx := context.Background()
	rep := newReport("dc_repaired_clean", "repair_converged", "sink_rows", "stable_across_passes")
	stmts := batchStatements()
	// Set-up: generate and write the inputs, then one warm pass (page cache,
	// lazy runtime state) whose outputs are not measured.
	in, err := setUp(env, rep, func(dir string) (*batchInputs, error) {
		in, err := setupBatchInputs(dir, env.seed)
		if err != nil {
			return nil, err
		}
		_, err = cleanPass(ctx, &runEnv{}, in, stmts, -1, dir)
		return in, err
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.inputs = in.files

	outDir := filepath.Join(env.dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var passMs []float64
	var first *passOutcome
	var lastRepaired string
	var planHits, planLookups, dictHits, dictLookups float64
	start := time.Now()
	// At least two passes, so that stable_across_passes always runs.
	for pass := int64(0); pass < 2 || time.Since(start).Seconds() < env.seconds; pass++ {
		t := time.Now()
		po, err := cleanPass(ctx, env, in, stmts, pass, outDir)
		d := time.Since(t)
		rep.attempted += int64(len(stmts))
		if err != nil {
			rep.fail(fmt.Sprintf("pass %d", pass), err)
			continue
		}
		passMs = append(passMs, ms(d.Nanoseconds()))
		planHits += float64(po.plan.Hits)
		planLookups += float64(po.plan.Hits + po.plan.Misses)
		dictHits += float64(po.dictHits)
		dictLookups += float64(po.dictHits + po.dictMisses)
		for _, s := range stmts {
			so := po.stmts[s.name]
			rep.check("sink_rows", so.sunk == so.m.ExportedRows,
				"%s: sink received %d rows, ExportedRows %d", s.name, so.sunk, so.m.ExportedRows)
		}
		dc := po.stmts["dc_repair"]
		rep.check("repair_converged", dc.remain == 0, "pass %d: %d violating pairs remain", pass, dc.remain)
		if first == nil {
			first = po
			for _, s := range stmts {
				addCounters(rep.counters, s.name, po.stmts[s.name].m)
			}
			// Copy the first repaired export aside: later passes overwrite it.
			saved := filepath.Join(env.dir, "first_repaired.csv")
			if err := os.Rename(po.repairedPath, saved); err != nil {
				return nil, err
			}
			checkRepairedExport(ctx, rep, saved)
		} else {
			for _, s := range stmts {
				a, b := first.stmts[s.name], po.stmts[s.name]
				same := a.m.ExportedRows == b.m.ExportedRows && a.bytes == b.bytes && a.changed == b.changed
				rep.check("stable_across_passes", same, "pass %d %s: rows %d/%d bytes %d/%d changed %d/%d",
					pass, s.name, b.m.ExportedRows, a.m.ExportedRows, b.bytes, a.bytes, b.changed, a.changed)
			}
		}
		lastRepaired = po.repairedPath
	}
	elapsed := time.Since(start).Seconds()
	rep.peakRSSMB = peakRSSMB()
	if len(passMs) > 1 {
		checkRepairedExport(ctx, rep, lastRepaired)
	}
	if len(passMs) == 0 {
		return rep, nil
	}
	p50 := median(passMs)
	rep.p50Ms, rep.p50N = p50, len(passMs)
	rep.rowsPerS = float64(in.rows) / (p50 / 1e3)
	rep.add("clean_rows_per_s", rep.rowsPerS, "rows/s", len(passMs))
	rep.add("pass_p50_ms", p50, "ms", len(passMs))
	rep.add("statements_per_s", float64(len(stmts)*len(passMs))/elapsed, "req/s", len(passMs)*len(stmts))
	rep.add("input_rows_per_pass", float64(in.rows), "rows", 0)

	if env.tr != nil {
		ix := indexSpans(env.tr.snapshot())
		v, n := ix.durMs("core.prepare")
		rep.setLayer("core.prepare_ms", v, n)
		v, n = ix.allocMB("core.prepare")
		rep.setLayer("core.prepare_alloc_mb", v, n)
		rep.setLayer("cleandb.plancache_hit_ratio", ratio(planHits, planLookups), len(passMs))
		for _, f := range []string{"csv", "jsonl", "colbin"} {
			v, n = ix.durMs("source.load." + f)
			rep.setLayer("source.load_ms."+f, v, n)
		}
		var loadAlloc []float64
		for _, f := range []string{"csv", "jsonl", "colbin"} {
			xs := ix.perReq("source.load."+f, func(s span) float64 { return float64(s.Alloc) / mib })
			for i, x := range xs {
				if i >= len(loadAlloc) {
					loadAlloc = append(loadAlloc, 0)
				}
				loadAlloc[i] += x
			}
		}
		rep.setLayer("source.load_alloc_mb", median(loadAlloc), len(loadAlloc))
		rep.setLayer("source.dict_hit_ratio", ratio(dictHits, dictLookups), len(passMs))
		for _, s := range stmts {
			v, n = ix.selfMs("exec." + s.name)
			rep.setLayer("exec."+s.name+"_ms", v, n)
			v, n = ix.allocMB("exec." + s.name)
			rep.setLayer("exec."+s.name+"_alloc_mb", v, n)
		}
		setPassCounters(rep, first, stmts)
		v, n = ix.durMs("sink.write") // busy time: concurrent writes add up
		rep.setLayer("sink.write_ms", v, n)
		v, n = ix.durMs("sink.close")
		rep.setLayer("sink.close_ms", v, n)
		var rows, bytes int64
		for _, s := range stmts {
			rows += first.stmts[s.name].sunk
			bytes += first.stmts[s.name].bytes
		}
		rep.setLayer("sink.rows", float64(rows), 1)
		rep.setLayer("sink.bytes", float64(bytes), 1)
	}
	return rep, nil
}

// setPassCounters reports one pass's execution counters, summed over its
// statements. Passes repeat identical work, so the first one stands for all.
func setPassCounters(rep *report, po *passOutcome, stmts []stmtDef) {
	var shuffled, comps, ticks, batches, simHits, simProbes, changed, rounds int64
	for _, s := range stmts {
		so := po.stmts[s.name]
		shuffled += so.m.ShuffledRecords
		comps += so.m.Comparisons
		ticks += so.m.SimTicks
		batches += so.m.BatchesEvaluated
		simHits += so.m.SimCacheHits
		simProbes += so.m.SimCacheHits + so.m.SimCacheMisses
		changed += so.changed
		rounds += int64(so.rounds)
	}
	rep.setLayer("exec.shuffled_records", float64(shuffled), 1)
	rep.setLayer("exec.comparisons", float64(comps), 1)
	rep.setLayer("exec.simticks", float64(ticks), 1)
	rep.setLayer("exec.batches_evaluated", float64(batches), 1)
	rep.setLayer("exec.simcache_hit_ratio", ratio(float64(simHits), float64(simProbes)), 1)
	rep.setLayer("cleaning.repair_values_changed", float64(changed), 1)
	rep.setLayer("cleaning.repair_rounds", float64(rounds), 1)
}

// addCounters records the execution counters the traced run must reproduce:
// exported rows, evaluated batches, shuffled records and strategy choices.
func addCounters(into map[string]int64, prefix string, m cleandb.QueryMetrics) {
	into[prefix+".exported_rows"] += m.ExportedRows
	into[prefix+".batches_evaluated"] += m.BatchesEvaluated
	into[prefix+".shuffled_records"] += m.ShuffledRecords
	names := make([]string, 0, len(m.Strategies))
	for k := range m.Strategies {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		into[prefix+".strategy."+k] += m.Strategies[k]
	}
}
