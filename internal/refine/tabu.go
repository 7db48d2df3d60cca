package refine

import (
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// This file implements the "more costly local search" strategies §II-A of
// the paper contrasts with FM: Tabu Search, which lifts FM's
// move-at-most-once-per-pass restriction ("a node can be moved different
// times during one iteration"), and simulated annealing, the canonical
// non-greedy hill-climber ("will sometimes accept a solution that is
// worse than the existing solution ... to avoid getting trapped in local
// minima"). Both optimize the same constrained objective as GP's
// goodness function: feasibility first, cut second, with constraint
// excess priced by the partition state's own Penalty. Both read the graph
// through the shared incremental partition state (internal/pstate), so a
// candidate move costs O(deg + K) rather than a fresh matrix rebuild.
// GP itself never runs them; the A5 ablation applies them to GP's result.

// TabuOptions configures TabuSearch.
type TabuOptions struct {
	// Iterations bounds the number of moves considered (default 100·n).
	Iterations int
	// Tenure is how many iterations a moved node stays tabu (default
	// max(7, n/10)).
	Tenure int
	// Patience stops the search after this many non-improving moves
	// (default 4·Tenure).
	Patience int
}

// TabuSearch refines a k-way partition under the constraints: each
// iteration applies the best non-tabu single-node move (by objective
// delta, even if worsening), marks the node tabu for Tenure iterations
// (aspiration: a tabu move that improves the best-known state is
// allowed), and finally restores the best state seen. Returns Stats on
// the cut plus whether the final state is feasible.
func TabuSearch(g *graph.Graph, parts []int, k int, c metrics.Constraints, opts TabuOptions) (Stats, bool) {
	csr := g.ToCSR()
	n := csr.NumNodes()
	if opts.Iterations <= 0 {
		opts.Iterations = 100 * n
	}
	if opts.Tenure <= 0 {
		opts.Tenure = n / 10
		if opts.Tenure < 7 {
			opts.Tenure = 7
		}
	}
	if opts.Patience <= 0 {
		opts.Patience = 4 * opts.Tenure
	}
	cfg := pstate.Config{K: k, Constraints: c}
	s, err := pstate.New(csr, parts, cfg)
	if err != nil {
		return Stats{}, false
	}
	st := Stats{CutBefore: s.Cut()}
	penalty := s.Penalty()
	bwEx, resEx, _ := s.Excess()
	cur := s.Cut() + (bwEx+resEx)*penalty
	best := cur
	bestParts := append([]int(nil), parts...)
	tabuUntil := make([]int, n)
	sinceImprove := 0

	for iter := 1; iter <= opts.Iterations && sinceImprove < opts.Patience; iter++ {
		// Best admissible move over all (node, target) pairs.
		var moveU graph.Node = -1
		moveTo := -1
		var moveDeltaObj int64
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			from := s.Part(un)
			if s.Count(from) == 1 {
				continue
			}
			for to := 0; to < k; to++ {
				if to == from {
					continue
				}
				cd, ed, red := s.MoveDelta(un, to)
				dObj := cd + (ed+red)*penalty
				isTabu := tabuUntil[u] > iter
				if isTabu && cur+dObj >= best {
					continue // tabu and not aspirational
				}
				if moveU < 0 || dObj < moveDeltaObj {
					moveU, moveTo, moveDeltaObj = un, to, dObj
				}
			}
		}
		if moveU < 0 {
			break
		}
		s.Move(moveU, moveTo)
		cur += moveDeltaObj
		tabuUntil[moveU] = iter + opts.Tenure
		st.Moves++
		if cur < best {
			best = cur
			copy(bestParts, s.Parts())
			sinceImprove = 0
		} else {
			sinceImprove++
		}
	}
	copy(parts, bestParts)
	st.Passes = 1
	return finish(csr, parts, cfg, st)
}

// finish reads the polished assignment's cut and feasibility from a
// fresh state at the restored best parts.
func finish(csr *graph.CSR, parts []int, cfg pstate.Config, st Stats) (Stats, bool) {
	s, err := pstate.New(csr, parts, cfg)
	if err != nil {
		return st, false
	}
	st.CutAfter = s.Cut()
	return st, s.Feasible()
}
