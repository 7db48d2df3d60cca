package engine

import (
	"math"
	"sync/atomic"
)

// incumbentRec is one published feasible completion.
type incumbentRec struct {
	goodness float64
	cycle    int
}

// incumbent is the shared-state half of cross-cycle pruning: completed
// feasible cycles publish here, running cycles consult it between
// refinement stages. All access is atomic. A cycle is abandoned only on
// bounds whose eventual outcome is independent of sibling timing: the
// pruned cycle's result is provably discarded by the deterministic
// reduction no matter when the incumbent was published, so results stay
// bit-identical to a serial run (see shouldAbandon).
type incumbent struct {
	// feasibleAt is the lowest cycle index that completed feasible, or
	// math.MaxInt64 before any did.
	feasibleAt atomic.Int64
	// best is the best (goodness, then lowest cycle) feasible completion.
	best atomic.Pointer[incumbentRec]
}

func newIncumbent() *incumbent {
	inc := &incumbent{}
	inc.feasibleAt.Store(math.MaxInt64)
	return inc
}

// publish records that cycle completed with a feasible partition of the
// given goodness.
func (inc *incumbent) publish(cycle int, goodness float64) {
	for {
		cur := inc.feasibleAt.Load()
		if int64(cycle) >= cur || inc.feasibleAt.CompareAndSwap(cur, int64(cycle)) {
			break
		}
	}
	for {
		cur := inc.best.Load()
		if cur != nil && (cur.goodness < goodness ||
			(cur.goodness == goodness && cur.cycle <= cycle)) {
			return
		}
		if inc.best.CompareAndSwap(cur, &incumbentRec{goodness: goodness, cycle: cycle}) {
			return
		}
	}
}

// shouldAbandon reports whether the cycle may stop refining now. Both
// rules are exact: without MinimizeAfterFeasible a cycle is pruned once
// a lower-indexed cycle has completed feasible (the reduction stops at
// the lowest feasible cycle, so every higher cycle is discarded anyway);
// with MinimizeAfterFeasible only a perfect incumbent (goodness 0) from a
// lower cycle prunes, since no later cycle can beat it or win its
// tie-break.
func (inc *incumbent) shouldAbandon(cfg *Config, cycle int) bool {
	if inc == nil {
		return false
	}
	if !cfg.MinimizeAfterFeasible {
		return inc.feasibleAt.Load() < int64(cycle)
	}
	rec := inc.best.Load()
	return rec != nil && rec.cycle < cycle && rec.goodness == 0
}
