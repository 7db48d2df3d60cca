package refine

import (
	"math"
	"math/rand"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// AnnealOptions configures Anneal.
type AnnealOptions struct {
	// Iterations is the number of proposed moves (default 200·n).
	Iterations int
	// InitialTemp sets the starting temperature as a fraction of the
	// total edge weight (default 0.05).
	InitialTemp float64
	// Cooling is the geometric cooling factor applied every n proposals
	// (default 0.95).
	Cooling float64
}

// Anneal refines a k-way partition by simulated annealing on the same
// constrained objective as TabuSearch: random single-node moves, always
// accepted when improving, accepted with probability exp(-Δ/T) when
// worsening, geometric cooling. The best state seen is restored at the
// end. The rng makes runs reproducible.
func Anneal(g *graph.Graph, parts []int, k int, c metrics.Constraints, opts AnnealOptions, rng *rand.Rand) (Stats, bool) {
	csr := g.ToCSR()
	n := csr.NumNodes()
	if opts.Iterations <= 0 {
		opts.Iterations = 200 * n
	}
	if opts.InitialTemp <= 0 {
		opts.InitialTemp = 0.05
	}
	if opts.Cooling <= 0 || opts.Cooling >= 1 {
		opts.Cooling = 0.95
	}
	cfg := pstate.Config{K: k, Constraints: c}
	s, err := pstate.New(csr, parts, cfg)
	if err != nil {
		return Stats{}, false
	}
	st := Stats{CutBefore: s.Cut(), CutAfter: s.Cut()}
	if n == 0 || k < 2 {
		return st, s.Feasible()
	}
	penalty := s.Penalty()
	bwEx, resEx, _ := s.Excess()
	cur := s.Cut() + (bwEx+resEx)*penalty
	best := cur
	bestParts := append([]int(nil), parts...)
	temp := opts.InitialTemp * float64(csr.EdgeWT+1)

	for iter := 0; iter < opts.Iterations; iter++ {
		if iter > 0 && iter%n == 0 {
			temp *= opts.Cooling
		}
		u := graph.Node(rng.Intn(n))
		from := s.Part(u)
		if s.Count(from) == 1 {
			continue
		}
		to := rng.Intn(k - 1)
		if to >= from {
			to++
		}
		cd, ed, red := s.MoveDelta(u, to)
		dObj := cd + (ed+red)*penalty
		accept := dObj <= 0
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp(-float64(dObj)/temp)
		}
		if !accept {
			continue
		}
		s.Move(u, to)
		cur += dObj
		st.Moves++
		if cur < best {
			best = cur
			copy(bestParts, s.Parts())
		}
	}
	copy(parts, bestParts)
	st.Passes = 1
	return finish(csr, parts, cfg, st)
}
