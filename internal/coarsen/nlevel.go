package coarsen

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
)

// This file implements the n-level coarsening variant of Osipov & Sanders
// ("n-level graph partitioning", ESA 2010), which §III of the paper
// contrasts with the classic scheme: instead of contracting a whole
// matching per level, exactly ONE edge is contracted per level, always a
// currently-heaviest edge. The hierarchy becomes very deep but each level
// is a minimal perturbation, which lets local search during uncoarsening
// act "highly localized around the un-contracted edge". Here it powers
// the A6 ablation comparing the two coarsening regimes inside GP.

// edgeItem identifies one candidate contraction.
type edgeItem struct {
	u, v graph.Node
	w    int64
}

// BuildNLevelWS constructs an n-level hierarchy: one heaviest-edge
// contraction per level until targetSize nodes remain (or no edges are
// left), with per-level contraction scratch drawn from ws. Fully
// deterministic: ties break toward the lexicographically smallest
// endpoint pair. Because Contract renumbers nodes each level, a
// cross-level priority queue cannot be reused; a per-level scan keeps the
// implementation exact, which is ample for the ablation-scale workloads
// this variant serves.
func BuildNLevelWS(ws *arena.Workspace, g *graph.Graph, targetSize int) (*Hierarchy, error) {
	if targetSize <= 1 {
		targetSize = 100
	}
	h := &Hierarchy{Original: g}
	cur := g
	for cur.NumNodes() > targetSize && cur.NumEdges() > 0 {
		var best edgeItem
		found := false
		for u := 0; u < cur.NumNodes(); u++ {
			for _, hf := range cur.Neighbors(graph.Node(u)) {
				if graph.Node(u) >= hf.To {
					continue
				}
				it := edgeItem{graph.Node(u), hf.To, hf.Weight}
				if !found || it.w > best.w ||
					(it.w == best.w && (it.u < best.u || (it.u == best.u && it.v < best.v))) {
					best = it
					found = true
				}
			}
		}
		if !found {
			break
		}
		m := match.NewMatching(cur.NumNodes())
		m[best.u], m[best.v] = best.v, best.u
		lvl, err := ContractWS(ws, cur, m)
		if err != nil {
			return nil, err
		}
		lvl.Heuristic = match.HeuristicHeavyEdge
		h.Levels = append(h.Levels, lvl)
		cur = lvl.Coarse
	}
	return h, nil
}
