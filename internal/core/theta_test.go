package core

import (
	"strings"
	"testing"

	"cleandb/internal/datagen"
	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// ruleψ is the paper's general denial constraint expressed directly in
// CleanM/SQL: a theta self-join with inequality predicates and a selective
// filter on one side (§8.3).
const ruleψ = `
SELECT t1.orderkey AS o1, t2.orderkey AS o2
FROM lineitem t1, lineitem t2
WHERE t1.extendedprice < t2.extendedprice
  AND t1.discount > t2.discount
  AND t1.extendedprice < 905`

// TestRuleψThroughCleanM runs the inequality denial constraint through the
// full stack: parse → comprehension (filter pushdown moves the selective
// price predicate below the join) → algebra (theta join with band
// statistics) → M-Bucket execution.
func TestRuleψThroughCleanM(t *testing.T) {
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 2000, Seed: 9})
	ctx := engine.NewContext(4)
	ctx.CompBudget = 10_000_000
	p := NewPipeline(ctx, map[string]*engine.Dataset{
		"lineitem": engine.FromValues(ctx, rows),
	})
	res, err := p.Run(ruleψ)
	if err != nil {
		t.Fatalf("rule ψ through CleanM: %v", err)
	}
	got := len(res.Rows())

	// Reference: nested loops.
	want := 0
	for _, t1 := range rows {
		if t1.Field("extendedprice").Float() >= 905 {
			continue
		}
		for _, t2 := range rows {
			if t1.Field("extendedprice").Float() < t2.Field("extendedprice").Float() &&
				t1.Field("discount").Float() > t2.Field("discount").Float() {
				want++
			}
		}
	}
	if got != want {
		t.Fatalf("rule ψ violations = %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("test data should contain ψ violations")
	}
}

// TestRuleψFilterPushdown: the plan must carry the one-sided price filter as
// a Select below the join (normalization's filter pushdown), not inside the
// theta predicate.
func TestRuleψFilterPushdown(t *testing.T) {
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 100, Seed: 9})
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, map[string]*engine.Dataset{
		"lineitem": engine.FromValues(ctx, rows),
	})
	prep, err := p.Prepare(ruleψ)
	if err != nil {
		t.Fatal(err)
	}
	explain := prep.Explain()
	if !strings.Contains(explain, "ThetaJoin") {
		t.Fatalf("plan should use a theta join:\n%s", explain)
	}
	// The Select with the 905 constant must appear BELOW the join (pushed
	// onto the t1 scan), i.e. indented deeper than the join line.
	lines := strings.Split(explain, "\n")
	joinDepth, selDepth := -1, -1
	for _, l := range lines {
		depth := (len(l) - len(strings.TrimLeft(l, " "))) / 2
		if strings.Contains(l, "ThetaJoin") {
			joinDepth = depth
		}
		if strings.Contains(l, "905") && strings.Contains(l, "Select") {
			selDepth = depth
		}
	}
	if selDepth == -1 {
		t.Fatalf("selective filter missing from plan:\n%s", explain)
	}
	if joinDepth == -1 || selDepth <= joinDepth {
		t.Fatalf("filter (depth %d) should be pushed below the join (depth %d):\n%s",
			selDepth, joinDepth, explain)
	}
}

// TestRuleψMBucketBalances: CleanM's normalizer pushes the selective filter
// below the join for every strategy (it is a level-1 rewrite), so both plans
// compute the same small-left × full-right join here. The M-Bucket operator
// must additionally balance that work across workers (Okcan & Riedewald's
// matrix partitioning), while the cartesian plan leaves the whole join on
// the worker(s) holding the few filtered left rows.
func TestRuleψMBucketBalances(t *testing.T) {
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 2000, Seed: 9})
	run := func(strategy physical.ThetaStrategy) (int, int64) {
		ctx := engine.NewContext(4)
		p := NewPipeline(ctx, map[string]*engine.Dataset{
			"lineitem": engine.FromValues(ctx, rows),
		})
		p.Config.Theta = strategy
		res, err := p.Run(ruleψ)
		if err != nil {
			t.Fatalf("strategy %v: %v", strategy, err)
		}
		var joinStraggler int64
		for _, st := range ctx.Metrics().Stages() {
			if st.Name == "join:thetajoin" || st.Name == "join:cartesian" {
				if c := st.MaxCost(); c > joinStraggler {
					joinStraggler = c
				}
			}
		}
		return len(res.Rows()), joinStraggler
	}
	mbRows, mbStraggler := run(physical.ThetaMBucket)
	ctRows, ctStraggler := run(physical.ThetaCartesian)
	if mbRows != ctRows {
		t.Fatalf("strategies disagree on violations: %d vs %d", mbRows, ctRows)
	}
	if mbStraggler*2 > ctStraggler {
		t.Fatalf("M-Bucket should balance the join load: straggler %d vs cartesian %d",
			mbStraggler, ctStraggler)
	}
}

// TestThetaSelfJoinSmall sanity-checks a tiny theta self-join through CleanM
// against hand-computed results.
func TestThetaSelfJoinSmall(t *testing.T) {
	schema := types.NewSchema("id", "v")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{types.Int(1), types.Int(10)}),
		types.NewRecord(schema, []types.Value{types.Int(2), types.Int(20)}),
		types.NewRecord(schema, []types.Value{types.Int(3), types.Int(30)}),
	}
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, map[string]*engine.Dataset{"t": engine.FromValues(ctx, rows)})
	res, err := p.Run(`SELECT a.id AS x, b.id AS y FROM t a, t b WHERE a.v < b.v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows()) != 3 { // (1,2) (1,3) (2,3)
		t.Fatalf("pairs = %v", res.Rows())
	}
}

// TestDenialThetaThenEqualityThenFilter: a DENIAL whose theta conjunct comes
// before a t2-only filter and an equality runs as a hash join on the
// equality, with the theta conjunct still applied to every pair.
func TestDenialThetaThenEqualityThenFilter(t *testing.T) {
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 600, Seed: 4})
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, map[string]*engine.Dataset{
		"lineitem": engine.FromValues(ctx, rows),
	})
	res, err := p.Run(`SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t2.discount < 0.05 and t1.suppkey = t2.suppkey)`)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, t1 := range rows {
		for _, t2 := range rows {
			if t1.Field("extendedprice").Float() < t2.Field("extendedprice").Float() &&
				t2.Field("discount").Float() < 0.05 &&
				types.Equal(t1.Field("suppkey"), t2.Field("suppkey")) {
				want++
			}
		}
	}
	if got := len(res.Rows()); got != want {
		t.Fatalf("violations = %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("test data should contain violations")
	}
}
