// Package coarsen implements the contraction phase of the multilevel
// scheme: given a matching, merge each matched pair into one coarse node
// (weights summed, parallel edges folded with summed weights — §IV-A of
// the paper), maintain the fine→coarse maps, and build full hierarchies.
// It also implements the paper's "best of three" strategy, which runs all
// three matching heuristics at each level and keeps the contraction that
// hides the most edge weight.
package coarsen

import (
	"fmt"
	"math/rand"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/pool"
)

// Level is Contract's result: the coarse graph plus the map from fine
// nodes to coarse nodes.
type Level struct {
	// Coarse is the contracted graph.
	Coarse *graph.Graph
	// FineToCoarse maps each fine node to its coarse image.
	FineToCoarse []graph.Node
}

// CSRLevel is one contraction step of a Hierarchy: the coarse CSR plus
// the map from fine nodes to coarse nodes. Each level owns its arrays.
type CSRLevel struct {
	// Coarse is the contracted graph. It carries no hyperedges.
	Coarse *graph.CSR
	// FineToCoarse maps each fine node to its coarse image.
	FineToCoarse []graph.Node
	// Heuristic records which matching produced this level.
	Heuristic match.Heuristic
	// Candidates records every competing heuristic's matching quality at
	// this level, in heuristic order. Only populated under
	// Options.RecordCandidates (trace support); nil otherwise.
	Candidates []MatchCandidate
}

// MatchCandidate is one heuristic's entry in a level's best-of-three
// comparison: the edge weight its matching hides and the pair count the
// tie-break uses.
type MatchCandidate struct {
	Heuristic     match.Heuristic
	MatchedWeight int64
	Pairs         int
}

// Contract applies a matching to g: every matched pair becomes one coarse
// node with summed weight; unmatched nodes carry over. Edges between
// coarse nodes fold duplicates by summing weights; intra-pair edges
// disappear (their weight is "hidden" inside the coarse node). It is
// ContractWS on g's CSR snapshot, converted back to a Graph.
func Contract(g *graph.Graph, m match.Matching) (*Level, error) {
	ws := arena.Get()
	defer arena.Put(ws)
	lvl, err := ContractWS(ws, g.ToCSR(), m)
	if err != nil {
		return nil, err
	}
	return &Level{Coarse: lvl.Coarse.ToGraph(), FineToCoarse: lvl.FineToCoarse}, nil
}

// ContractWS contracts the fine CSR c along m into a new coarse CSR
// level, drawing its staging arrays from ws. Each coarse row lists its
// neighbors in first-encounter order of the sweep "fine u ascending, row
// order, u < v": the order sequential Graph.AddEdge calls would give. The
// RNG-driven matchings draw from neighbor lists, so this order is part of
// the determinism contract.
//
// The rows are built in two passes over the fine edges. The first counts
// each coarse row's inter-pair half-edges; the second writes every
// crossing edge into both coarse rows, duplicates included. A marker
// array indexed by coarse node then folds each row's duplicates into
// their first occurrence, summing weights, and the folded rows are
// copied into arrays sized exactly for the level.
func ContractWS(ws *arena.Workspace, c *graph.CSR, m match.Matching) (*CSRLevel, error) {
	n := c.NumNodes()
	if len(m) != n {
		return nil, fmt.Errorf("coarsen: matching length %d != nodes %d", len(m), n)
	}
	fineToCoarse := make([]graph.Node, n)
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	// Assign coarse ids: pairs get one id (at the lower endpoint's visit),
	// singles get their own.
	next := graph.Node(0)
	for u := 0; u < n; u++ {
		if fineToCoarse[u] != -1 {
			continue
		}
		v := m[u]
		if v != match.Unmatched {
			if int(v) < 0 || int(v) >= n || (m[v] != graph.Node(u)) {
				return nil, fmt.Errorf("coarsen: invalid matching at node %d", u)
			}
			fineToCoarse[v] = next
		}
		fineToCoarse[u] = next
		next++
	}
	nc := int(next)
	coarse := &graph.CSR{NodeW: make([]int64, nc)}
	// cursor[cu+1] counts row cu's half-edges; the prefix sum turns
	// cursor[cu] into the row's start, and the fill advances it to the
	// row's end.
	cursor := ws.Int32s.Get(nc + 1)
	for u := 0; u < n; u++ {
		cu := fineToCoarse[u]
		coarse.NodeW[cu] += c.NodeW[u]
		coarse.NodeWT += c.NodeW[u]
		nbrs, _ := c.Row(graph.Node(u))
		for _, v := range nbrs {
			if fineToCoarse[v] != cu {
				cursor[cu+1]++
			}
		}
	}
	for cu := 0; cu < nc; cu++ {
		cursor[cu+1] += cursor[cu]
	}
	staged := int(cursor[nc])
	adj := ws.Nodes.Cap(staged)[:staged]
	adjW := ws.Int64s.Cap(staged)[:staged]
	for u := 0; u < n; u++ {
		cu := fineToCoarse[u]
		nbrs, wts := c.Row(graph.Node(u))
		for i, v := range nbrs {
			cv := fineToCoarse[v]
			if graph.Node(u) >= v || cu == cv {
				continue // each edge once; intra-pair edges vanish
			}
			w := wts[i]
			adj[cursor[cu]], adjW[cursor[cu]] = cv, w
			cursor[cu]++
			adj[cursor[cv]], adjW[cursor[cv]] = cu, w
			cursor[cv]++
			coarse.EdgeWT += w
		}
	}
	// Fold in place: mark[d] is d's output slot, valid while it lies at
	// or after the current row's output start. Output never overtakes
	// input, so the compaction can reuse the staging arrays.
	mark := ws.Int32s.Cap(nc)[:nc]
	for i := range mark {
		mark[i] = -1
	}
	coarse.XAdj = make([]int32, nc+1)
	out, lo := int32(0), int32(0)
	for cu := 0; cu < nc; cu++ {
		start, hi := out, cursor[cu]
		coarse.XAdj[cu] = start
		for i := lo; i < hi; i++ {
			d := adj[i]
			if s := mark[d]; s >= start {
				adjW[s] += adjW[i]
				continue
			}
			mark[d] = out
			adj[out], adjW[out] = d, adjW[i]
			out++
		}
		lo = hi
	}
	coarse.XAdj[nc] = out
	coarse.Adj = append([]graph.Node(nil), adj[:out]...)
	coarse.AdjW = append([]int64(nil), adjW[:out]...)
	ws.Int32s.Put(cursor)
	ws.Int32s.Put(mark)
	ws.Nodes.Put(adj)
	ws.Int64s.Put(adjW)
	return &CSRLevel{Coarse: coarse, FineToCoarse: fineToCoarse}, nil
}

// ProjectUp lifts a partition of the coarse graph to the fine graph: each
// fine node inherits the part of its coarse image. This is the projection
// step of un-coarsening.
func (l *CSRLevel) ProjectUp(coarseParts []int) ([]int, error) {
	fine := make([]int, len(l.FineToCoarse))
	if err := l.ProjectUpInto(coarseParts, fine); err != nil {
		return nil, err
	}
	return fine, nil
}

// ProjectUpInto is ProjectUp writing into a caller-provided slice of
// length len(FineToCoarse), so the uncoarsening loop can recycle its
// per-level assignment buffers instead of allocating one per level.
func (l *CSRLevel) ProjectUpInto(coarseParts, fine []int) error {
	if len(coarseParts) != l.Coarse.NumNodes() {
		return fmt.Errorf("coarsen: projection input length %d != coarse nodes %d",
			len(coarseParts), l.Coarse.NumNodes())
	}
	if len(fine) != len(l.FineToCoarse) {
		return fmt.Errorf("coarsen: projection output length %d != fine nodes %d",
			len(fine), len(l.FineToCoarse))
	}
	for u, c := range l.FineToCoarse {
		fine[u] = coarseParts[c]
	}
	return nil
}

// Options configures hierarchy construction.
type Options struct {
	// TargetSize stops coarsening once the graph has at most this many
	// nodes (paper default: 100).
	TargetSize int
	// KMeansClusters is the cluster count for the k-means matching
	// heuristic (<= 0 defaults to 4).
	KMeansClusters int
	// Heuristics restricts which matchings compete at each level; nil
	// means all three (the paper's configuration).
	Heuristics []match.Heuristic
	// MinShrink aborts coarsening when a level shrinks the node count by
	// less than this factor (guards against matching starvation on star
	// graphs). Defaults to 0.02 (2%).
	MinShrink float64
	// Pool executes the per-level heuristic fan-out (nil: the shared
	// pool.Default()). The RNG chain stays one task, so the pool width
	// cannot change any random draw.
	Pool *pool.Pool
	// RecordCandidates stores every heuristic's matching quality on each
	// Level (trace support). Off by default: the per-level slice is the
	// only allocation it adds, and the solve path stays allocation-free
	// with tracing disabled.
	RecordCandidates bool
}

func (o Options) withDefaults() Options {
	if o.TargetSize <= 1 {
		o.TargetSize = 100
	}
	if o.KMeansClusters <= 0 {
		o.KMeansClusters = 4
	}
	if o.Heuristics == nil {
		o.Heuristics = match.All()
	}
	if o.MinShrink <= 0 {
		o.MinShrink = 0.02
	}
	return o
}

// Hierarchy is a full coarsening stack. Levels[0] contracts the original
// graph; Levels[len-1].Coarse is the coarsest graph.
type Hierarchy struct {
	// Original is the input graph, level 0.
	Original *graph.CSR
	// Levels are the contraction steps, finest first.
	Levels []*CSRLevel
}

// Coarsest returns the smallest graph of the hierarchy (the original graph
// if no contraction happened).
func (h *Hierarchy) Coarsest() *graph.CSR {
	return h.At(len(h.Levels))
}

// Depth returns the number of contraction levels.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// At returns the graph at a given level: 0 is the original, Depth() is
// the coarsest.
func (h *Hierarchy) At(level int) *graph.CSR {
	if level == 0 {
		return h.Original
	}
	return h.Levels[level-1].Coarse
}

// ProjectTo lifts a partition at fromLevel (Depth() = coarsest, 0 =
// original) up to toLevel < fromLevel.
func (h *Hierarchy) ProjectTo(parts []int, fromLevel, toLevel int) ([]int, error) {
	if fromLevel < toLevel {
		return nil, fmt.Errorf("coarsen: cannot project from level %d to coarser level %d", fromLevel, toLevel)
	}
	cur := parts
	for lvl := fromLevel; lvl > toLevel; lvl-- {
		var err error
		cur, err = h.Levels[lvl-1].ProjectUp(cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// bestMatchingScoredWS runs the competing heuristics on g and returns the
// matching that hides the most edge weight (ties: most pairs, then
// heuristic order). This is the paper's per-level comparison of the
// three strategies. When record is set it also returns the
// per-heuristic quality table the trace surfaces; recording reuses the
// weights/pairs the reduction computes anyway, so it cannot change the
// winner or any RNG draw.
//
// The heuristics run concurrently on the shared worker pool with a
// deterministic split: every RNG-consuming heuristic stays in one task,
// executed in declaration order against the shared stream (so the random
// draws are exactly those of a serial run), while RNG-free heuristics fan
// out as their own tasks. Results are reduced in heuristic order, which
// makes the winner — and therefore the whole hierarchy — bit-identical to
// a serial execution for a fixed seed and any pool width. The
// RNG-consuming chain (which runs on one goroutine while the caller
// waits) draws scratch from ws itself, and each RNG-free heuristic uses
// a persistent child workspace so repeated levels and cycles reuse the
// same buffers.
func bestMatchingScoredWS(ws *arena.Workspace, g *graph.CSR, opts Options, rng *rand.Rand, record bool) (match.Matching, match.Heuristic, []MatchCandidate) {
	opts = opts.withDefaults()
	results := make([]match.Matching, len(opts.Heuristics))
	var rngChain []int // indexes of RNG-consuming heuristics, in order
	var tasks []func()
	for i, h := range opts.Heuristics {
		if h.UsesRNG() {
			rngChain = append(rngChain, i)
			continue
		}
		// Child must be materialized before the pool tasks fork: it
		// appends to the parent's child list on first use.
		i, h, cws := i, h, ws.Child(i)
		tasks = append(tasks, func() {
			// Unknown heuristics yield a nil matching and are skipped in
			// the reduction; callers validate up front.
			results[i], _ = match.ComputeWS(cws, h, g, opts.KMeansClusters, rng)
		})
	}
	if len(rngChain) > 0 {
		// The whole RNG chain is ONE pool task: its heuristics execute in
		// declaration order against the shared stream, so the random
		// draws are exactly those of a serial run for any pool width.
		tasks = append(tasks, func() {
			for _, i := range rngChain {
				results[i], _ = match.ComputeWS(ws, opts.Heuristics[i], g, opts.KMeansClusters, rng)
			}
		})
	}
	opts.Pool.Run(len(tasks), func(i int) { tasks[i]() })

	var bestM match.Matching
	var bestH match.Heuristic
	var bestW int64 = -1
	bestPairs := -1
	var cands []MatchCandidate
	if record {
		cands = make([]MatchCandidate, 0, len(opts.Heuristics))
	}
	for i, m := range results {
		if m == nil {
			continue
		}
		w := m.MatchedWeightCSR(g)
		p := m.Pairs()
		if record {
			cands = append(cands, MatchCandidate{Heuristic: opts.Heuristics[i], MatchedWeight: w, Pairs: p})
		}
		if w > bestW || (w == bestW && p > bestPairs) {
			bestM, bestH, bestW, bestPairs = m, opts.Heuristics[i], w, p
		}
	}
	return bestM, bestH, cands
}

// BuildWS constructs a hierarchy over g by repeated best-of-three
// contraction until the coarse graph reaches opts.TargetSize nodes or
// contraction stalls. Matching and contraction scratch is drawn from ws;
// the Hierarchy itself outlives the call and is heap-allocated.
func BuildWS(ws *arena.Workspace, g *graph.CSR, opts Options, rng *rand.Rand) (*Hierarchy, error) {
	opts = opts.withDefaults()
	h := &Hierarchy{Original: g}
	cur := g
	for cur.NumNodes() > opts.TargetSize {
		m, heur, cands := bestMatchingScoredWS(ws, cur, opts, rng, opts.RecordCandidates)
		if m.Pairs() == 0 {
			break // nothing contractible (no edges)
		}
		lvl, err := ContractWS(ws, cur, m)
		if err != nil {
			return nil, err
		}
		lvl.Heuristic = heur
		lvl.Candidates = cands
		shrink := 1 - float64(lvl.Coarse.NumNodes())/float64(cur.NumNodes())
		h.Levels = append(h.Levels, lvl)
		cur = lvl.Coarse
		if shrink < opts.MinShrink {
			break
		}
	}
	return h, nil
}
