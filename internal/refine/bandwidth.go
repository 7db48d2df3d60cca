package refine

import (
	"math"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// BandwidthStats reports the outcome of a bandwidth-repair run.
type BandwidthStats struct {
	// Moves is the number of node moves applied.
	Moves int
	// Passes is the number of repair sweeps executed.
	Passes int
	// ExcessBefore and ExcessAfter are the summed pairwise-bandwidth
	// excesses over Bmax before and after the run.
	ExcessBefore, ExcessAfter int64
	// Feasible reports whether every pair now meets Bmax.
	Feasible bool
}

// RepairBandwidth greedily moves boundary nodes between parts to drive
// every pairwise bandwidth under c.Bmax, while respecting c.Rmax on the
// destination part when possible (the paper's FM-based bandwidth-repair
// step of §IV-B/§IV-C: "Partitions will be changed and nodes will move
// between partitions as far as constraints met"). Each pass considers all
// nodes incident to an over-budget pair and applies the move with the best
// (excess reduction, cut reduction) lexicographic gain; a node moves at
// most once per pass. Stops when feasible, when a pass makes no progress,
// or after maxPasses (default 16).
func RepairBandwidth(g *graph.Graph, parts []int, k int, c metrics.Constraints, maxPasses int) BandwidthStats {
	ws := arena.Get()
	defer arena.Put(ws)
	return RepairBandwidthWS(ws, g.ToCSR(), parts, k, c, maxPasses)
}

// RepairBandwidthWS is RepairBandwidth on a prebuilt CSR snapshot — the
// form the multilevel driver uses, building one CSR per hierarchy level
// and sharing it across every refinement stage at that level — drawing
// the partition state and the per-pass moved set from ws.
func RepairBandwidthWS(ws *arena.Workspace, csr *graph.CSR, parts []int, k int, c metrics.Constraints, maxPasses int) BandwidthStats {
	st := BandwidthStats{}
	if c.Bmax <= 0 {
		st.Feasible = true
		return st
	}
	s, err := pstate.NewWS(ws, csr, parts, pstate.Config{K: k, Constraints: metrics.Constraints{Bmax: c.Bmax}})
	if err != nil {
		return st
	}
	moved := ws.Bools.Get(csr.NumNodes())
	st = repairBandwidthState(s, csr, c, maxPasses, moved)
	copy(parts, s.Parts())
	ws.Bools.Put(moved)
	s.Release(ws)
	return st
}

// repairBandwidthState runs the repair sweeps against an existing state
// whose maintained Bmax equals c.Bmax. The caller reads the repaired
// assignment from s.Parts(). moved is zeroed node-length scratch.
func repairBandwidthState(s *pstate.State, csr *graph.CSR, c metrics.Constraints, maxPasses int, moved []bool) BandwidthStats {
	if maxPasses <= 0 {
		maxPasses = 16
	}
	st := BandwidthStats{}
	bwExcess, _, _ := s.Excess()
	st.ExcessBefore = bwExcess
	st.ExcessAfter = st.ExcessBefore
	if st.ExcessBefore == 0 {
		st.Feasible = true
		return st
	}
	k := s.K
	n := csr.NumNodes()
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		if pass > 0 {
			clear(moved)
		}
		progressed := false
		for {
			// Best lexicographic (excess reduction, cut reduction) move over
			// all nodes incident to a violating pair.
			var bestU graph.Node = -1
			bestTo := -1
			var bestExcess, bestCut int64
			for u := 0; u < n; u++ {
				if moved[u] {
					continue
				}
				un := graph.Node(u)
				from := s.Part(un)
				if s.Count(from) == 1 {
					continue
				}
				// Is u on a violating pair's boundary?
				touches := false
				adj, _ := csr.Row(un)
				for _, v := range adj {
					p := s.Part(v)
					if p != from && s.Bandwidth(from, p) > c.Bmax {
						touches = true
						break
					}
				}
				if !touches {
					continue
				}
				w := csr.NodeW[u]
				for to := 0; to < k; to++ {
					if to == from {
						continue
					}
					if lim := c.RmaxFor(to); lim > 0 && s.Resource(to)+w > lim {
						continue
					}
					cd, ed, _ := s.MoveDelta(un, to)
					if ed < bestExcess || (ed == bestExcess && ed < 0 && cd < bestCut) {
						bestU, bestTo, bestExcess, bestCut = un, to, ed, cd
					}
				}
			}
			if bestU < 0 || bestExcess >= 0 {
				break
			}
			s.Move(bestU, bestTo)
			moved[bestU] = true
			st.Moves++
			progressed = true
			st.ExcessAfter += bestExcess
			if st.ExcessAfter == 0 {
				st.Feasible = true
				return st
			}
		}
		if !progressed {
			break
		}
	}
	st.ExcessAfter, _, _ = s.Excess()
	st.Feasible = st.ExcessAfter == 0
	return st
}

// RebalanceResources moves nodes out of parts whose resource total
// exceeds rmax into the part with the most free space, preferring moves
// that increase the cut least. It is the repair used after the greedy
// initial partitioning when forced placement overfilled a part. Stops
// when all parts fit, when stuck, or after maxPasses (default 16).
// Returns the number of moves applied and whether all parts now fit.
func RebalanceResources(g *graph.Graph, parts []int, k int, rmax int64, maxPasses int) (int, bool) {
	if rmax <= 0 {
		return 0, true
	}
	ws := arena.Get()
	defer arena.Put(ws)
	return RebalanceResourcesWS(ws, g.ToCSR(), parts, k, metrics.Constraints{Rmax: rmax}, maxPasses)
}

// RebalanceResourcesWS is RebalanceResources on a prebuilt CSR snapshot
// with the per-part totals and connectivity scratch drawn from ws, under
// heterogeneous per-part bounds (c.RmaxFor): a part is overfull relative
// to its own capacity, and destinations are sized by theirs. Parts with
// no active bound are never overfull and accept any node. Returns
// (0, true) when no part has an active bound.
func RebalanceResourcesWS(ws *arena.Workspace, csr *graph.CSR, parts []int, k int, c metrics.Constraints, maxPasses int) (int, bool) {
	lims := ws.Int64s.Get(k)
	defer ws.Int64s.Put(lims)
	active := false
	for p := range lims {
		lims[p] = c.RmaxFor(p)
		if lims[p] > 0 {
			active = true
		}
	}
	if !active {
		return 0, true
	}
	if maxPasses <= 0 {
		maxPasses = 16
	}
	res := ws.Int64s.Get(k)
	cnt := ws.Ints.Get(k)
	defer func() {
		ws.Int64s.Put(res)
		ws.Ints.Put(cnt)
	}()
	n := csr.NumNodes()
	for u := 0; u < n; u++ {
		res[parts[u]] += csr.NodeW[u]
		cnt[parts[u]]++
	}
	fits := func() bool {
		for p, r := range res {
			if lims[p] > 0 && r > lims[p] {
				return false
			}
		}
		return true
	}
	moves := 0
	conn := ws.Int64s.Get(k)
	defer ws.Int64s.Put(conn)
	for pass := 0; pass < maxPasses && !fits(); pass++ {
		progressed := false
		for u := 0; u < n && !fits(); u++ {
			un := graph.Node(u)
			from := parts[u]
			if lims[from] <= 0 || res[from] <= lims[from] || cnt[from] == 1 {
				continue
			}
			w := csr.NodeW[u]
			for i := range conn {
				conn[i] = 0
			}
			adj, wts := csr.Row(un)
			for i, v := range adj {
				conn[parts[v]] += wts[i]
			}
			// Choose the destination that fits and costs the least cut,
			// breaking ties toward the most free space.
			bestTo := -1
			var bestCost int64
			var bestFree int64
			for to := 0; to < k; to++ {
				if to == from {
					continue
				}
				tl := lims[to]
				if tl > 0 && res[to]+w > tl {
					continue
				}
				cost := conn[from] - conn[to]
				free := int64(math.MaxInt64)
				if tl > 0 {
					free = tl - (res[to] + w)
				}
				if bestTo < 0 || cost < bestCost || (cost == bestCost && free > bestFree) {
					bestTo, bestCost, bestFree = to, cost, free
				}
			}
			if bestTo < 0 {
				continue
			}
			parts[u] = bestTo
			res[from] -= w
			res[bestTo] += w
			cnt[from]--
			cnt[bestTo]++
			moves++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return moves, fits()
}
