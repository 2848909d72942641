package cleaning

import (
	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// DCConfig parameterizes a general denial-constraint check with inequality
// predicates — the paper's rule ψ: ∀t1,t2 ¬(t1.price < t2.price ∧
// t1.discount > t2.discount ∧ t1.price < X).
type DCConfig struct {
	// LeftFilter, when non-nil, pre-filters the left side of the self-join
	// (the paper's 0.01%-selectivity price filter). CleanM's normalization
	// guarantees this filter is pushed below the join.
	LeftFilter func(types.Value) bool
	// RightFilter, when non-nil, pre-filters the right side the same way
	// (the t2-only conjuncts, e.g. t2.price < Y). Pred must still imply it:
	// the filters only narrow the candidates, they never decide a pair.
	RightFilter func(types.Value) bool
	// Pred is the violation predicate over a candidate pair.
	Pred func(t1, t2 types.Value) bool
	// Band supplies the numeric attribute the theta join sorts and prunes
	// on (e.g. price), and the pruning direction.
	Band func(types.Value) float64
	// BandOp is the comparison between t1.Band and t2.Band implied by Pred
	// ("<" means pairs with t1.band >= t2.band max cannot match).
	BandOp string
	// Strategy selects the join algorithm.
	Strategy physical.ThetaStrategy
}

// DCCheck evaluates the denial constraint via a self theta join and returns
// the violating pairs. It returns engine.ErrBudgetExceeded when the selected
// strategy blows the context's comparison budget — how the experiments
// reproduce the paper's "fails to terminate" rows (Table 5).
func DCCheck(ds *engine.Dataset, cfg DCConfig) (*engine.Dataset, error) {
	left, right := ds, ds
	if cfg.LeftFilter != nil {
		left = ds.Filter("dc:filter", cfg.LeftFilter)
	}
	if cfg.RightFilter != nil {
		right = ds.Filter("dc:filter-right", cfg.RightFilter)
	}
	combine := engine.PairCombine
	switch cfg.Strategy {
	case physical.ThetaCartesian:
		return left.CartesianFilter("dc", right, cfg.Pred, combine)
	case physical.ThetaMinMax:
		overlap := func(lmin, lmax, rmin, rmax float64) bool {
			switch cfg.BandOp {
			case "<", "<=":
				return lmin <= rmax
			case ">", ">=":
				return lmax >= rmin
			default:
				return true
			}
		}
		return left.MinMaxBlockJoin("dc", right, cfg.Band, cfg.Band, overlap, cfg.Pred, combine)
	default:
		stats := engine.ThetaJoinStats{SortKey: cfg.Band}
		switch cfg.BandOp {
		case "<", "<=":
			stats.Prune = func(lmin, _, _, rmax float64) bool { return lmin > rmax }
		case ">", ">=":
			stats.Prune = func(_, lmax, rmin, _ float64) bool { return lmax < rmin }
		}
		return left.ThetaJoin("dc", right, stats, cfg.Pred, combine)
	}
}
