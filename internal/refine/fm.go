package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// Stats summarizes what a refinement pass achieved.
type Stats struct {
	// Passes is the number of full passes executed.
	Passes int
	// Moves is the number of node moves kept (after rollback).
	Moves int
	// CutBefore and CutAfter bracket the global edge cut.
	CutBefore, CutAfter int64
}

// Improved reports whether the refinement reduced the cut.
func (s Stats) Improved() bool { return s.CutAfter < s.CutBefore }

// csrEdgeCut is metrics.EdgeCut on a CSR snapshot.
func csrEdgeCut(csr *graph.CSR, parts []int) int64 {
	var cut int64
	n := csr.NumNodes()
	for u := 0; u < n; u++ {
		adj, wts := csr.Row(graph.Node(u))
		for i, v := range adj {
			if graph.Node(u) < v && parts[u] != parts[v] {
				cut += wts[i]
			}
		}
	}
	return cut
}

// FMBisect runs Fiduccia–Mattheyses passes on a 2-way partition
// (parts[u] ∈ {0,1}), mutating parts in place. Each pass moves every node
// at most once, always taking the highest-gain admissible move, allowing
// negative-gain moves (hill climbing), and finally rolls back to the best
// prefix seen. maxResource bounds the node-weight total of each side
// (<= 0: the only bound is that no side may be emptied); maxPasses <= 0
// defaults to 8. Terminates when a pass yields no improvement.
func FMBisect(g *graph.Graph, parts []int, maxResource int64, maxPasses int) Stats {
	ws := arena.Get()
	defer arena.Put(ws)
	csr := g.ToCSR()
	if maxPasses <= 0 {
		maxPasses = 8
	}
	st := Stats{CutBefore: csrEdgeCut(csr, parts)}
	cur := st.CutBefore
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		improved, newCut, kept := fmBisectPass(ws, csr, parts, maxResource, cur)
		cur = newCut
		st.Moves += kept
		if !improved {
			break
		}
	}
	st.CutAfter = cur
	return st
}

// fmBisectPass runs one FM pass. Returns (improved, cut after rollback,
// moves kept).
func fmBisectPass(ws *arena.Workspace, csr *graph.CSR, parts []int, maxResource int64, startCut int64) (bool, int64, int) {
	n := csr.NumNodes()
	// Side resource totals.
	var res [2]int64
	var cnt [2]int
	for u := 0; u < n; u++ {
		res[parts[u]] += csr.NodeW[u]
		cnt[parts[u]]++
	}
	// gain(u) = external(u) - internal(u): cut reduction if u switches side.
	pq := newGainPQ(n)
	gains := ws.Int64s.Get(n)
	defer ws.Int64s.Put(gains)
	for u := 0; u < n; u++ {
		var ext, int_ int64
		adj, wts := csr.Row(graph.Node(u))
		for i, v := range adj {
			if parts[v] == parts[u] {
				int_ += wts[i]
			} else {
				ext += wts[i]
			}
		}
		gains[u] = ext - int_
		pq.Push(graph.Node(u), gains[u])
	}
	locked := ws.Bools.Get(n)
	defer ws.Bools.Put(locked)
	type move struct {
		node graph.Node
		from int
	}
	var seq []move
	cut := startCut
	bestCut := startCut
	bestLen := 0

	for pq.Len() > 0 {
		// Find the best admissible move: highest gain whose move does not
		// overflow the destination or empty the source.
		var chosen graph.Node = -1
		var skipped []graph.Node
		for pq.Len() > 0 {
			u, _ := pq.Pop()
			from := parts[u]
			to := 1 - from
			w := csr.NodeW[u]
			overflow := maxResource > 0 && res[to]+w > maxResource
			empties := cnt[from] == 1
			if overflow || empties {
				skipped = append(skipped, u)
				continue
			}
			chosen = u
			break
		}
		// Skipped nodes stay candidates for later (resources shift).
		for _, s := range skipped {
			pq.Push(s, gains[s])
		}
		if chosen < 0 {
			break
		}
		u := chosen
		from := parts[u]
		to := 1 - from
		cut -= gains[u]
		parts[u] = to
		res[from] -= csr.NodeW[u]
		res[to] += csr.NodeW[u]
		cnt[from]--
		cnt[to]++
		locked[u] = true
		seq = append(seq, move{u, from})
		// Update neighbor gains: for neighbor v on side s, edge {u,v}
		// changed from internal↔external.
		adj, wts := csr.Row(u)
		for i, v := range adj {
			if locked[v] {
				continue
			}
			var delta int64
			if parts[v] == to {
				// Edge was external to v (u was opposite), now internal.
				delta = -2 * wts[i]
			} else {
				// Edge was internal to v's side? v is on `from`; u left it.
				delta = 2 * wts[i]
			}
			gains[v] += delta
			pq.Adjust(v, delta)
		}
		if cut < bestCut {
			bestCut = cut
			bestLen = len(seq)
		}
	}
	// Roll back to the best prefix.
	for i := len(seq) - 1; i >= bestLen; i-- {
		parts[seq[i].node] = seq[i].from
	}
	return bestCut < startCut, bestCut, bestLen
}

// KWayFM runs greedy k-way FM refinement: repeated passes over boundary
// nodes, each pass moving nodes (at most once each) to the neighbor part
// with the best positive gain, subject to the resource bound. Unlike
// 2-way FM it does not hill-climb — this mirrors the coarse-grained
// k-way refinement used in multilevel k-way partitioners. maxResource
// <= 0 disables the bound; maxPasses <= 0 defaults to 8.
func KWayFM(g *graph.Graph, parts []int, k int, maxResource int64, maxPasses int) Stats {
	ws := arena.Get()
	defer arena.Put(ws)
	return KWayFMWS(ws, g.ToCSR(), parts, k, metrics.Constraints{Rmax: maxResource}, maxPasses)
}

// KWayFMWS is KWayFM on a prebuilt CSR snapshot with the per-part totals
// and connectivity scratch drawn from ws, under heterogeneous per-part
// resource bounds: the destination check uses c.RmaxFor(to), so a big
// part can absorb nodes a small one cannot (<= 0 = unbounded). Only the
// resource bounds of c are read. The cut is tracked incrementally from
// the applied gains, so the only full adjacency sweep is the initial cut
// count.
func KWayFMWS(ws *arena.Workspace, csr *graph.CSR, parts []int, k int, c metrics.Constraints, maxPasses int) Stats {
	lims := ws.Int64s.Get(k)
	defer ws.Int64s.Put(lims)
	for p := range lims {
		lims[p] = c.RmaxFor(p)
	}
	if maxPasses <= 0 {
		maxPasses = 8
	}
	st := Stats{CutBefore: csrEdgeCut(csr, parts)}
	cut := st.CutBefore
	n := csr.NumNodes()
	res := ws.Int64s.Get(k)
	cnt := ws.Ints.Get(k)
	defer func() {
		ws.Int64s.Put(res)
		ws.Ints.Put(cnt)
	}()
	for u := 0; u < n; u++ {
		res[parts[u]] += csr.NodeW[u]
		cnt[parts[u]]++
	}
	conn := ws.Int64s.Get(k) // scratch: connectivity of one node to each part
	defer ws.Int64s.Put(conn)
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		moves := 0
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			from := parts[u]
			if cnt[from] == 1 {
				continue // never empty a part
			}
			boundary := false
			for i := range conn {
				conn[i] = 0
			}
			adj, wts := csr.Row(un)
			for i, v := range adj {
				conn[parts[v]] += wts[i]
				if parts[v] != from {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			w := csr.NodeW[u]
			bestTo := -1
			var bestGain int64
			for to := 0; to < k; to++ {
				if to == from || conn[to] == 0 {
					continue
				}
				if lim := lims[to]; lim > 0 && res[to]+w > lim {
					continue
				}
				// bestGain starts at 0, so only strictly improving moves
				// are taken; ascending iteration breaks ties toward the
				// lowest part id.
				if gain := conn[to] - conn[from]; gain > bestGain {
					bestGain = gain
					bestTo = to
				}
			}
			if bestTo >= 0 {
				parts[u] = bestTo
				res[from] -= w
				res[bestTo] += w
				cnt[from]--
				cnt[bestTo]++
				cut -= bestGain
				moves++
			}
		}
		st.Moves += moves
		if moves == 0 {
			break
		}
	}
	st.CutAfter = cut
	return st
}
