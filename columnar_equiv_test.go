package cleandb

// Columnar/row equivalence property tests: every query must produce
// identical rows, repairs and cost metrics whether it runs through a DB,
// where sources land as dictionary-encoded column batches, or through the
// row-form reference: the same core.Pipeline and physical.Config over
// boxed-row datasets, where every operator runs its row form. Stage costs
// are logged identically in both forms by design, so even SimTicks — a
// straggler-sensitive max over per-worker costs — must match tick for tick.
// The suite fuzzes over worker/partition counts and over the physical
// strategy matrix, with strategies pinned so the stats-driven automatic
// selection cannot make the two sides diverge.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cleandb/internal/core"
	"cleandb/internal/datagen"
	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/source"
	"cleandb/internal/types"
)

// equivQueries covers the experiment query shapes: scans with filters
// (numeric and dictionary-code string comparisons), an equi join, the FD /
// DEDUP / term-validation (CLUSTER BY) cleaning pipelines, a DENIAL+REPAIR
// denial-constraint pipeline, and the unified multi-operator query.
var equivQueries = []struct {
	name  string
	query string
	// repairs names the source whose repaired rows must also match.
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

// equivData generates the shared test relations once: paper-style customers
// with duplicates, skewed lineitems with FD noise, and a term dictionary of
// the clean customer names.
func equivData() (customer, lineitem, dictionary []Value) {
	cust := datagen.GenCustomer(datagen.CustomerConfig{Rows: 60, Seed: 7})
	customer = cust.Rows
	lineitem = datagen.GenLineitem(datagen.LineitemConfig{Rows: 150, NoiseDiscount: true, Seed: 11})
	dictSchema := NewSchema("term")
	seen := map[string]bool{}
	for _, r := range customer {
		n := r.Field("name").Str()
		if !seen[n] {
			seen[n] = true
			dictionary = append(dictionary, NewRecord(dictSchema, []Value{String(n)}))
		}
	}
	return customer, lineitem, dictionary
}

// equivPair opens a DB over the equivalence relations and builds the
// row-form reference pipeline over the same rows. cfg must match the
// strategies opts pin (the zero Config for a DB with none pinned).
func equivPair(workers int, cfg physical.Config, opts ...Option) (*DB, *core.Pipeline) {
	customer, lineitem, dictionary := equivData()
	db := Open(append([]Option{WithWorkers(workers)}, opts...)...)
	db.RegisterRows("customer", customer)
	db.RegisterRows("lineitem", lineitem)
	db.RegisterRows("dictionary", dictionary)
	ctx := engine.NewContext(workers)
	ref := rowReference(ctx, cfg, core.MapCatalog{
		"customer":   engine.FromValues(ctx, customer),
		"lineitem":   engine.FromValues(ctx, lineitem),
		"dictionary": engine.FromValues(ctx, dictionary),
	})
	return db, ref
}

// rowReference is the row-form reference pipeline over boxed-row datasets.
func rowReference(ctx *engine.Context, cfg physical.Config, catalog core.MapCatalog) *core.Pipeline {
	p := core.NewPipelineCatalog(ctx, catalog)
	p.Config = cfg
	return p
}

// canonRows renders rows to their canonical keys, preserving order: the two
// execution forms must agree on content and order both.
func canonRows(rows []Value) []string {
	out := make([]string, len(rows))
	for i, v := range rows {
		out[i] = types.Key(v)
	}
	return out
}

func diffRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows columnar vs %d rows row-form", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs:\n columnar: %s\n row-form: %s", label, i, got[i], want[i])
		}
	}
}

// refRepaired returns the reference's final healed rows of source, like
// Result.RepairedRows.
func refRepaired(res *core.Result, source string) []Value {
	var rows []Value
	for _, s := range res.Repairs() {
		if s.Source == source {
			rows = s.Rows
		}
	}
	return rows
}

// checkResults runs one query on the DB and on the reference and asserts
// identical rows, task rows and repaired rows. The reference must evaluate
// no column batches. It returns both sides' results for metric checks.
func checkResults(t *testing.T, col *DB, ref *core.Pipeline, label, query, repairs string) (*Result, *core.Result) {
	t.Helper()
	resC, errC := col.Query(query)
	resR, errR := ref.RunContext(context.Background(), query, nil)
	if (errC == nil) != (errR == nil) {
		t.Fatalf("%s: columnar err=%v, row err=%v", label, errC, errR)
	}
	if errC != nil {
		t.Fatalf("%s: %v", label, errC)
	}
	diffRows(t, label+"/rows", canonRows(resC.Rows()), canonRows(resR.Rows()))
	for _, task := range resR.Tasks {
		gotC, okC := resC.TaskRowsOK(task.Name)
		if !okC {
			t.Fatalf("%s: task %q missing from columnar result", label, task.Name)
		}
		diffRows(t, label+"/task:"+task.Name, canonRows(gotC), canonRows(task.Output.Rows()))
	}
	if repairs != "" {
		diffRows(t, label+"/repaired",
			canonRows(resC.RepairedRows(repairs)), canonRows(refRepaired(resR, repairs)))
	}
	if n := resR.Stats.BatchesEvaluated; n != 0 {
		t.Fatalf("%s: row-form reference evaluated %d batches", label, n)
	}
	return resC, resR
}

// checkEquiv asserts result equality plus equal cost metrics. It returns the
// columnar execution's metrics so callers can make assertions about the
// batch path having actually engaged.
func checkEquiv(t *testing.T, col *DB, ref *core.Pipeline, label, query, repairs string) QueryMetrics {
	t.Helper()
	resC, resR := checkResults(t, col, ref, label, query, repairs)
	mc, mr := resC.Metrics(), resR.Stats
	if mc.SimTicks != mr.SimTicks || mc.Comparisons != mr.Comparisons ||
		mc.ShuffledRecords != mr.ShuffledRecords || mc.ShuffledBytes != mr.ShuffledBytes {
		t.Fatalf("%s: metrics diverge:\n columnar: ticks=%d cmp=%d recs=%d bytes=%d\n row-form: ticks=%d cmp=%d recs=%d bytes=%d",
			label,
			mc.SimTicks, mc.Comparisons, mc.ShuffledRecords, mc.ShuffledBytes,
			mr.SimTicks, mr.Comparisons, mr.ShuffledRecords, mr.ShuffledBytes)
	}
	return mc
}

// TestColumnarEquivalence is the core property: across worker counts and the
// pinned strategy matrix, columnar execution ≡ the row-form reference — same
// rows, same repairs, same SimTicks/Comparisons/Shuffle metrics.
func TestColumnarEquivalence(t *testing.T) {
	strategies := []struct {
		name  string
		group physical.GroupStrategy
		theta physical.ThetaStrategy
	}{
		{"aggregate_mbucket", physical.GroupAggregate, physical.ThetaMBucket},
		{"hash_cartesian", physical.GroupHash, physical.ThetaCartesian},
		{"sort_mbucket", physical.GroupSort, physical.ThetaMBucket},
	}
	var sawBatches bool
	for _, workers := range []int{1, 3, 8} {
		for _, st := range strategies {
			col, ref := equivPair(workers, physical.Config{Group: st.group, Theta: st.theta},
				WithGroupStrategy(st.group), WithThetaStrategy(st.theta))
			for _, q := range equivQueries {
				label := fmt.Sprintf("w%d/%s/%s", workers, st.name, q.name)
				mc := checkEquiv(t, col, ref, label, q.query, q.repairs)
				if mc.BatchesEvaluated > 0 {
					sawBatches = true
				}
			}
		}
	}
	// The property must not hold vacuously: at least the filter queries have
	// to run their vectorized kernels on the columnar side.
	if !sawBatches {
		t.Fatal("no query evaluated column batches; the columnar path never engaged")
	}
}

// TestColumnarEquivalenceDefaults compares default execution (with
// stats-driven strategy selection active) against the reference with
// default strategies. Strategy choices may differ, so only results — rows,
// tasks, repairs — are compared, plus the columnar-side observability
// counters.
func TestColumnarEquivalenceDefaults(t *testing.T) {
	col, ref := equivPair(4, physical.Config{})
	for _, q := range equivQueries {
		checkResults(t, col, ref, q.name, q.query, q.repairs)
	}
	m := col.Metrics()
	if m.BatchesEvaluated == 0 {
		t.Fatal("default columnar mode evaluated no batches")
	}
	if m.DictHits+m.DictMisses == 0 {
		t.Fatal("columnar load interned no strings")
	}
	if len(m.Strategies) == 0 {
		t.Fatal("stats-driven selection recorded no strategy choices")
	}
}

// TestColumnarEquivalenceFileSources runs the property over the file-backed
// scan paths: CSV (rows scanned then batched) and colbin (batches decoded
// natively, no transpose), against the reference over the row scan of the
// same files.
func TestColumnarEquivalenceFileSources(t *testing.T) {
	customer, _, _ := equivData()
	dir := t.TempDir()

	csvPath := filepath.Join(dir, "customer.csv")
	var sb strings.Builder
	sb.WriteString("custkey,name,address,nationkey,phone\n")
	for _, r := range customer {
		fmt.Fprintf(&sb, "%d,%s,%s,%d,%s\n",
			r.Field("custkey").Int(), r.Field("name").Str(), r.Field("address").Str(),
			r.Field("nationkey").Int(), r.Field("phone").Str())
	}
	if err := os.WriteFile(csvPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	binPath := filepath.Join(dir, "customer.colbin")
	{
		db := Open(WithWorkers(2))
		db.RegisterRows("customer", customer)
		s, err := SinkFromPath(binPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.ExecuteTo(t.Context(), `SELECT * FROM customer c`, s); err != nil {
			t.Fatal(err)
		}
	}

	query := `SELECT c.name AS n FROM customer c WHERE c.nationkey < 9 and c.address = '1 oak st'`
	cfg := physical.Config{Group: physical.GroupAggregate, Theta: physical.ThetaMBucket}
	for _, src := range []struct{ name, path string }{
		{"csv", csvPath}, {"colbin", binPath},
	} {
		for _, workers := range []int{1, 4} {
			col := Open(WithWorkers(workers), WithGroupStrategy(cfg.Group), WithThetaStrategy(cfg.Theta))
			if err := col.RegisterFile("customer", src.path); err != nil {
				t.Fatal(err)
			}
			fs, err := source.FromPath(src.path)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := fs.Scan(t.Context(), workers)
			if err != nil {
				t.Fatal(err)
			}
			ctx := engine.NewContext(workers)
			ref := rowReference(ctx, cfg, core.MapCatalog{"customer": engine.FromPartitions(ctx, parts)})
			label := fmt.Sprintf("%s/w%d", src.name, workers)
			mc := checkEquiv(t, col, ref, label, query, "")
			if mc.BatchesEvaluated == 0 {
				t.Fatalf("%s: columnar file scan evaluated no batches", label)
			}
		}
	}
}

// TestStatsEpochInvalidatesPlans pins the plan-cache satellite: a plan
// prepared while a source was still pending (unknown statistics) must not be
// served from the cache once the load has produced real statistics.
func TestStatsEpochInvalidatesPlans(t *testing.T) {
	customer, _, _ := equivData()
	dir := t.TempDir()
	path := filepath.Join(dir, "customer.csv")
	var sb strings.Builder
	sb.WriteString("custkey,name,address,nationkey,phone\n")
	for _, r := range customer {
		fmt.Fprintf(&sb, "%d,%s,%s,%d,%s\n",
			r.Field("custkey").Int(), r.Field("name").Str(), r.Field("address").Str(),
			r.Field("nationkey").Int(), r.Field("phone").Str())
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	db := Open(WithWorkers(2))
	db.RegisterCSVFile("customer", path)
	const q = `SELECT c.name AS n FROM customer c WHERE c.nationkey < 9`
	// First query loads the pending source mid-prepare: a miss, keyed under
	// the post-load stats epoch.
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	// Same statement again: stats unchanged, must now hit.
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics().PlanCacheHit {
		t.Fatal("second identical query should hit the plan cache")
	}
	// Re-registering bumps the catalog epoch; the reload that follows bumps
	// the stats epoch. Either way the old plan must not be served.
	db.RegisterCSVFile("customer", path)
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics().PlanCacheHit {
		t.Fatal("query after re-register must re-plan against fresh statistics")
	}
}
