package algebra

import (
	"strings"
	"testing"

	"cleandb/internal/lang"
	"cleandb/internal/monoid"
)

// lowerQuery parses, desugars, normalizes and lowers a single-task CleanM
// statement over the lineitem/customer catalog, the way the pipeline does.
func lowerQuery(t *testing.T, src string) Plan {
	t.Helper()
	q, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tasks, err := (&lang.Desugarer{}).Desugar(q)
	if err != nil {
		t.Fatalf("desugar: %v", err)
	}
	if len(tasks) != 1 {
		t.Fatalf("want one task, got %d", len(tasks))
	}
	nc, ok := monoid.NewNormalizer().Normalize(tasks[0].Comp).(*monoid.Comprehension)
	if !ok {
		t.Fatalf("task normalized to a non-comprehension")
	}
	sources := map[string]bool{"lineitem": true, "customer": true, UnitSource: true}
	p, err := (&Lowerer{IsSource: func(name string) bool { return sources[name] }}).Lower(nc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func wantPlan(t *testing.T, p Plan, lines ...string) {
	t.Helper()
	if got, want := Explain(p), strings.Join(lines, "\n")+"\n"; got != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, want)
	}
}

// TestLowerDenialFiltersBothJoinInputs: each one-sided DENIAL conjunct
// filters the self-join input that binds it, so the theta join pairs only
// rows that can violate.
func TestLowerDenialFiltersBothJoinInputs(t *testing.T) {
	p := lowerQuery(t, `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < 910.0 and t2.extendedprice < 1400.0)`)
	wantPlan(t, p,
		"Reduce[bag/{a: t1, b: t2}]",
		"  ThetaJoin[((t1.extendedprice < t2.extendedprice) and (t1.discount > t2.discount))]",
		"    Select[(t1.extendedprice < 910)]",
		"      Scan(lineitem as t1)",
		"    Select[(t2.extendedprice < 1400)]",
		"      Scan(lineitem as t2)")
}

// TestLowerOneSidedBeforeEqualityKeepsEquiJoin: a filter that arrives before
// the equality moves below the join, so the equality still finds a join on
// top and becomes its key instead of a post-filter over a cross product.
func TestLowerOneSidedBeforeEqualityKeepsEquiJoin(t *testing.T) {
	for _, where := range []string{
		"o.discount > 0.05 and c.custkey = o.suppkey",
		"c.custkey = o.suppkey and o.discount > 0.05",
	} {
		p := lowerQuery(t, "SELECT c.name AS n, o.orderkey AS ok FROM customer c, lineitem o WHERE "+where)
		wantPlan(t, p,
			"Reduce[bag/{n: c.name, ok: o.orderkey}]",
			"  EquiJoin[c.custkey=o.suppkey]",
			"    Scan(customer as c)",
			"    Select[(o.discount > 0.05)]",
			"      Scan(lineitem as o)")
	}
}

// TestLowerOuterJoinKeepsSelectAbove: filtering an outer join's input would
// turn filtered rows into unmatched ones, so the predicate stays on top.
func TestLowerOuterJoinKeepsSelectAbove(t *testing.T) {
	st := &lowerState{l: testLowerer(), bound: map[string]bool{"c": true, "o": true}}
	st.plan = &Join{
		Left:      &Scan{Source: "customer", Alias: "c"},
		Right:     &Scan{Source: "orders", Alias: "o"},
		LeftKeys:  []monoid.Expr{monoid.F(monoid.V("c"), "id")},
		RightKeys: []monoid.Expr{monoid.F(monoid.V("o"), "cid")},
		Outer:     true,
	}
	for _, cond := range []monoid.Expr{
		monoid.Gt(monoid.F(monoid.V("o"), "v"), monoid.CInt(3)),
		monoid.Lt(monoid.F(monoid.V("c"), "v"), monoid.F(monoid.V("o"), "v")),
	} {
		if err := st.addPred(cond); err != nil {
			t.Fatal(err)
		}
	}
	wantPlan(t, st.plan,
		"Select[(c.v < o.v)]",
		"  Select[(o.v > 3)]",
		"    OuterEquiJoin[c.id=o.cid]",
		"      Scan(customer as c)",
		"      Scan(orders as o)")
}

// TestLowerPredicateReadingSourceIsPushed: a catalog source a predicate reads
// is bound on either join input, so the predicate still moves to the input
// binding its variable, and a later equality still becomes the join key.
func TestLowerPredicateReadingSourceIsPushed(t *testing.T) {
	dictSize := &monoid.Comprehension{
		M:     monoid.Count,
		Head:  monoid.V("d"),
		Quals: []monoid.Qual{&monoid.Generator{Var: "d", Source: monoid.V("dict")}},
	}
	c := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: monoid.V("c"),
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "c", Source: monoid.V("customer")},
			&monoid.Generator{Var: "o", Source: monoid.V("orders")},
			&monoid.Pred{Cond: monoid.Lt(monoid.F(monoid.V("o"), "v"), dictSize)},
			&monoid.Pred{Cond: monoid.Eq(monoid.F(monoid.V("c"), "id"), monoid.F(monoid.V("o"), "cid"))},
		},
	}
	wantPlan(t, lower(t, c),
		"Reduce[bag/c]",
		"  EquiJoin[c.id=o.cid]",
		"    Scan(customer as c)",
		"    Select[(o.v < count{ d | d <- dict })]",
		"      Scan(orders as o)")
}

// TestLowerThetaBeforeEqualityMovesToResidual: a cross predicate that
// arrives before the equality first becomes the join's theta condition. When
// the equality then turns the join into a hash join, which applies only its
// residual, the theta condition must move into the residual rather than be
// dropped. The pushed one-sided filter in between is what keeps the join on
// top for the equality to find.
func TestLowerThetaBeforeEqualityMovesToResidual(t *testing.T) {
	for _, tc := range []struct {
		src, theta string
		want       []string
	}{{
		src:   "SELECT c.name AS n, o.orderkey AS ok FROM customer c, lineitem o WHERE c.acctbal < o.extendedprice and o.discount > 0.05 and c.custkey = o.suppkey",
		theta: "(c.acctbal < o.extendedprice)",
		want: []string{
			"Reduce[bag/{n: c.name, ok: o.orderkey}]",
			"  EquiJoin[c.custkey=o.suppkey]",
			"    Scan(customer as c)",
			"    Select[(o.discount > 0.05)]",
			"      Scan(lineitem as o)",
		},
	}, {
		src:   "SELECT * FROM lineitem t1 DENIAL(t2, t1.extendedprice < t2.extendedprice and t2.discount < 0.05 and t1.suppkey = t2.suppkey)",
		theta: "(t1.extendedprice < t2.extendedprice)",
		want: []string{
			"Reduce[bag/{a: t1, b: t2}]",
			"  EquiJoin[t1.suppkey=t2.suppkey]",
			"    Scan(lineitem as t1)",
			"    Select[(t2.discount < 0.05)]",
			"      Scan(lineitem as t2)",
		},
	}} {
		p := lowerQuery(t, tc.src)
		wantPlan(t, p, tc.want...)
		j := p.Children()[0].(*Join)
		if j.Theta != nil {
			t.Fatalf("%s: hash join keeps theta %s, which execution ignores", tc.src, j.Theta)
		}
		if j.Residual == nil || j.Residual.String() != tc.theta {
			t.Fatalf("%s: residual = %v, want %s", tc.src, j.Residual, tc.theta)
		}
	}
}
