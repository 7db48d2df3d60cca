// Package refine implements the local-search refinement algorithms of the
// multilevel scheme: the Fiduccia–Mattheyses (FM) pass for bisections, a
// greedy k-way FM variant and its data-parallel batch form, the
// bandwidth-repair pass that drives pairwise traffic under Bmax, the
// resource-rebalancing passes that drive per-part totals under Rmax and
// the vector bounds, and logic replication. Tabu Search and simulated
// annealing are kept for the polish ablation only. All refiners mutate an
// assignment vector in place and report what they changed.
package refine

import "ppnpart/internal/graph"

// gainPQ is a max-priority queue of nodes keyed by int64 gain with
// O(log n) update-key, used by the FM passes. Fiduccia–Mattheyses used
// bucket arrays, which require small integer gain ranges; process-network
// edge weights are arbitrary int64 bandwidths, so a binary heap with a
// position index gives the same amortized behaviour without bounding the
// gain domain. Ties break toward the lower node id for determinism.
type gainPQ struct {
	heap []graph.Node // heap of node ids
	pos  []int        // pos[node] = index in heap, -1 if absent
	gain []int64      // gain[node] = current key
}

func newGainPQ(n int) *gainPQ {
	pq := &gainPQ{
		heap: make([]graph.Node, 0, n),
		pos:  make([]int, n),
		gain: make([]int64, n),
	}
	for i := range pq.pos {
		pq.pos[i] = -1
	}
	return pq
}

func (pq *gainPQ) Len() int { return len(pq.heap) }

// Contains reports whether u is in the queue.
func (pq *gainPQ) Contains(u graph.Node) bool { return pq.pos[u] >= 0 }

// Gain returns the current key of u (meaningful only if Contains(u)).
func (pq *gainPQ) Gain(u graph.Node) int64 { return pq.gain[u] }

// less orders the heap: higher gain first, then lower id.
func (pq *gainPQ) less(i, j int) bool {
	gi, gj := pq.gain[pq.heap[i]], pq.gain[pq.heap[j]]
	if gi != gj {
		return gi > gj
	}
	return pq.heap[i] < pq.heap[j]
}

func (pq *gainPQ) swap(i, j int) {
	pq.heap[i], pq.heap[j] = pq.heap[j], pq.heap[i]
	pq.pos[pq.heap[i]] = i
	pq.pos[pq.heap[j]] = j
}

func (pq *gainPQ) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !pq.less(i, p) {
			break
		}
		pq.swap(i, p)
		i = p
	}
}

func (pq *gainPQ) down(i int) {
	n := len(pq.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && pq.less(l, best) {
			best = l
		}
		if r < n && pq.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		pq.swap(i, best)
		i = best
	}
}

// Push inserts u with the given gain; if u is present its key is updated.
func (pq *gainPQ) Push(u graph.Node, gain int64) {
	if pq.pos[u] >= 0 {
		pq.Update(u, gain)
		return
	}
	pq.gain[u] = gain
	pq.pos[u] = len(pq.heap)
	pq.heap = append(pq.heap, u)
	pq.up(pq.pos[u])
}

// Update changes u's key.
func (pq *gainPQ) Update(u graph.Node, gain int64) {
	i := pq.pos[u]
	if i < 0 {
		pq.Push(u, gain)
		return
	}
	old := pq.gain[u]
	pq.gain[u] = gain
	if gain > old {
		pq.up(i)
	} else if gain < old {
		pq.down(i)
	}
}

// Adjust adds delta to u's key if present.
func (pq *gainPQ) Adjust(u graph.Node, delta int64) {
	if pq.pos[u] >= 0 {
		pq.Update(u, pq.gain[u]+delta)
	}
}

// Pop removes and returns the max-gain node.
func (pq *gainPQ) Pop() (graph.Node, int64) {
	u := pq.heap[0]
	g := pq.gain[u]
	pq.Remove(u)
	return u, g
}

// Peek returns the max-gain node without removal.
func (pq *gainPQ) Peek() (graph.Node, int64) {
	u := pq.heap[0]
	return u, pq.gain[u]
}

// Remove deletes u from the queue if present.
func (pq *gainPQ) Remove(u graph.Node) {
	i := pq.pos[u]
	if i < 0 {
		return
	}
	last := len(pq.heap) - 1
	if i != last {
		pq.swap(i, last)
	}
	pq.heap = pq.heap[:last]
	pq.pos[u] = -1
	if i <= last-1 && i < len(pq.heap) {
		pq.down(i)
		pq.up(i)
	}
}
