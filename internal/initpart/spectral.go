package initpart

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ppnpart/internal/graph"
	"ppnpart/internal/refine"
)

// SpectralBisect computes a bisection from the Fiedler vector (the
// eigenvector of the second-smallest eigenvalue of the weighted graph
// Laplacian), splitting at the resource-weighted median. The Fiedler
// vector is obtained by power iteration on a spectrally shifted Laplacian
// with deflation of the constant eigenvector — dependency-free and
// adequate for the coarsest graphs (a few hundred nodes) where spectral
// seeding is used. This is the Global Search comparator of §II-B.
func SpectralBisect(g *graph.Graph, rng *rand.Rand) ([]int, error) {
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("initpart: spectral bisection needs >= 2 nodes, have %d", n)
	}
	f := FiedlerVector(g, rng)
	// Split at the node-weight-weighted median of the Fiedler values.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if f[idx[a]] != f[idx[b]] {
			return f[idx[a]] < f[idx[b]]
		}
		return idx[a] < idx[b]
	})
	half := g.TotalNodeWeight() / 2
	parts := make([]int, n)
	var acc int64
	placed := 0
	for _, u := range idx {
		if placed > 0 && acc >= half {
			break
		}
		parts[u] = 0
		acc += g.NodeWeight(graph.Node(u))
		placed++
	}
	for _, u := range idx[placed:] {
		parts[u] = 1
	}
	if placed == n { // degenerate: all on one side
		parts[idx[n-1]] = 1
	}
	return parts, nil
}

// FiedlerVector approximates the second eigenvector of the weighted
// Laplacian L = D - A by power iteration on (cI - L), which maps the
// smallest eigenvalues of L to the largest of the iterated operator;
// the constant vector (eigenvalue 0) is deflated each step.
func FiedlerVector(g *graph.Graph, rng *rand.Rand) []float64 {
	n := g.NumNodes()
	// c must exceed lambda_max(L); 2*max weighted degree is a standard
	// upper bound (Gershgorin: lambda_max <= 2*d_max).
	var dmax float64
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		deg[u] = float64(g.WeightedDegree(graph.Node(u)))
		if deg[u] > dmax {
			dmax = deg[u]
		}
	}
	c := 2*dmax + 1
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	y := make([]float64, n)
	const iters = 300
	for it := 0; it < iters; it++ {
		deflateConstant(x)
		normalize(x)
		// y = (cI - L) x = c·x - D·x + A·x
		for u := 0; u < n; u++ {
			y[u] = (c - deg[u]) * x[u]
			for _, h := range g.Neighbors(graph.Node(u)) {
				y[u] += float64(h.Weight) * x[h.To]
			}
		}
		x, y = y, x
	}
	deflateConstant(x)
	normalize(x)
	return x
}

// deflateConstant removes the component along the all-ones vector.
func deflateConstant(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func normalize(x []float64) {
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		// Degenerate start: re-seed deterministically.
		for i := range x {
			x[i] = float64(i%2)*2 - 1
		}
		return
	}
	for i := range x {
		x[i] /= norm
	}
}

// SpectralKWay produces a k-way partition by recursive spectral bisection
// with FM cleanup on each split, mirroring RecursiveBisect but seeded
// spectrally.
func SpectralKWay(g *graph.Graph, k int, rng *rand.Rand) ([]int, error) {
	n := g.NumNodes()
	if k <= 0 {
		return nil, fmt.Errorf("initpart: K = %d must be positive", k)
	}
	if n < k {
		return nil, fmt.Errorf("initpart: cannot split %d nodes into %d parts", n, k)
	}
	parts := make([]int, n)
	nodes := make([]graph.Node, n)
	for i := range nodes {
		nodes[i] = graph.Node(i)
	}
	spectralRecurse(g, nodes, 0, k, parts, rng)
	fixEmptyParts(g.NodeWeights(), parts, k)
	rebalanceToIdeal(g, parts, k)
	return parts, nil
}

func spectralRecurse(g *graph.Graph, nodes []graph.Node, firstPart, k int, parts []int, rng *rand.Rand) {
	if k == 1 {
		for _, u := range nodes {
			parts[u] = firstPart
		}
		return
	}
	kLeft := k / 2
	kRight := k - kLeft
	sub, _ := g.InducedSubgraph(nodes)
	var bi []int
	if sub.NumNodes() >= 2 && sub.NumEdges() > 0 {
		var err error
		bi, err = SpectralBisect(sub, rng)
		if err != nil {
			bi = nil
		}
	}
	if bi == nil {
		bi = growBisection(sub, sub.TotalNodeWeight()/2, rng)
	}
	total := sub.TotalNodeWeight()
	targetLeft := total * int64(kLeft) / int64(k)
	bound := maxI64(targetLeft, total-targetLeft) + sub.MaxNodeWeight()
	refine.FMBisect(sub, bi, bound, 6)
	var left, right []graph.Node
	for i, u := range nodes {
		if bi[i] == 0 {
			left = append(left, u)
		} else {
			right = append(right, u)
		}
	}
	for len(left) < kLeft && len(right) > kRight {
		left = append(left, right[len(right)-1])
		right = right[:len(right)-1]
	}
	for len(right) < kRight && len(left) > kLeft {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	spectralRecurse(g, left, firstPart, kLeft, parts, rng)
	spectralRecurse(g, right, firstPart+kLeft, kRight, parts, rng)
}
