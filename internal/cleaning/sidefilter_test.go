package cleaning

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// TestRightFilterKeepsPairsAndRepairs: RightFilter only narrows the t2
// candidates of a Pred that already implies it, so DCCheck, DeltaDCPairs and
// RepairDC must report exactly what they report with it cleared — for every
// band op, strategy and fresh mask.
func TestRightFilterKeepsPairsAndRepairs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	strategies := []physical.ThetaStrategy{physical.ThetaCartesian, physical.ThetaMinMax, physical.ThetaMBucket}
	for trial := 0; trial < 48; trial++ {
		op := []string{"<", "<=", ">", ">="}[trial%4]
		// A coarse value grid, so band and repair ties occur.
		rows := make([]types.Value, 20+rng.Intn(60))
		for i := range rows {
			rows[i] = li(int64(i), float64(rng.Intn(20)), float64(rng.Intn(10))/100)
		}
		x, y := float64(rng.Intn(20)), float64(rng.Intn(20))
		left := func(v types.Value) bool { return v.Field("price").Float() < x }
		right := func(v types.Value) bool { return v.Field("price").Float() >= y }
		price := func(v types.Value) float64 { return v.Field("price").Float() }
		withFilter := DCRepairConfig{
			Check: DCConfig{
				LeftFilter:  left,
				RightFilter: right,
				Pred: func(t1, t2 types.Value) bool {
					return compareBand(price(t1), op, price(t2)) &&
						t1.Field("discount").Float() > t2.Field("discount").Float() &&
						left(t1) && right(t2)
				},
				Band:     price,
				BandOp:   op,
				Strategy: strategies[rng.Intn(len(strategies))],
			},
			RepairAttr: func(v types.Value) float64 { return v.Field("discount").Float() },
			RepairCol:  "discount",
			RepairOp:   ">",
		}
		cleared := withFilter
		cleared.Check.RightFilter = nil
		mask := make([]bool, len(rows))
		for i := range mask {
			mask[i] = rng.Intn(4) == 0
		}
		fresh := func(i int, _ types.Value) bool { return mask[i] }
		ds := engine.FromValues(engine.NewContext(1+rng.Intn(4)), rows)
		label := fmt.Sprintf("trial %d (op %s, x %v, y %v)", trial, op, x, y)

		checkPairs := func(cfg DCConfig) []string {
			found, err := DCCheck(ds, cfg)
			if err != nil {
				t.Fatalf("%s: DCCheck: %v", label, err)
			}
			var out []string
			for _, r := range found.Collect() {
				out = append(out, types.Key(r.Field("left"))+" "+types.Key(r.Field("right")))
			}
			sort.Strings(out)
			return out
		}
		if got, want := checkPairs(withFilter.Check), checkPairs(cleared.Check); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DCCheck pairs differ:\n got %v\nwant %v", label, got, want)
		}

		deltaPairs := func(cfg DCConfig) []string {
			pairs, err := DeltaDCPairs(ds, fresh, cfg)
			if err != nil {
				t.Fatalf("%s: DeltaDCPairs: %v", label, err)
			}
			out := make([]string, len(pairs))
			for i, p := range pairs {
				out[i] = types.Key(p[0]) + " " + types.Key(p[1])
			}
			sort.Strings(out)
			return out
		}
		if got, want := deltaPairs(withFilter.Check), deltaPairs(cleared.Check); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DeltaDCPairs pairs differ:\n got %v\nwant %v", label, got, want)
		}

		got, err := RepairDC(ds, withFilter)
		if err != nil {
			t.Fatalf("%s: RepairDC: %v", label, err)
		}
		want, err := RepairDC(ds, cleared)
		if err != nil {
			t.Fatalf("%s: RepairDC: %v", label, err)
		}
		if !reflect.DeepEqual(got.Entries, want.Entries) ||
			got.Rounds != want.Rounds || got.Violations != want.Violations || got.Remaining != want.Remaining {
			t.Fatalf("%s: repairs differ:\n got %d rounds, %d/%d violations, %v\nwant %d rounds, %d/%d violations, %v",
				label, got.Rounds, got.Violations, got.Remaining, got.Entries,
				want.Rounds, want.Violations, want.Remaining, want.Entries)
		}
	}
}

// compareBand evaluates a op b for a band comparison.
func compareBand(a float64, op string, b float64) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default:
		return a >= b
	}
}
