package coarsen

import (
	"math/rand"
	"slices"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
)

// referenceContract is the contraction order contract written the plain
// way: coarse ids as ContractWS assigns them, then one sequential
// Graph.AddEdge per crossing edge over the sweep "fine u ascending, row
// order, u < v". AddEdge folds a duplicate into its first occurrence, so
// every coarse row lists its neighbors in first-encounter order.
func referenceContract(g *graph.Graph, m match.Matching) (*graph.Graph, []graph.Node) {
	n := g.NumNodes()
	f2c := make([]graph.Node, n)
	for i := range f2c {
		f2c[i] = -1
	}
	next := graph.Node(0)
	for u := 0; u < n; u++ {
		if f2c[u] != -1 {
			continue
		}
		if v := m[u]; v != match.Unmatched {
			f2c[v] = next
		}
		f2c[u] = next
		next++
	}
	w := make([]int64, next)
	for u, c := range f2c {
		w[c] += g.NodeWeight(graph.Node(u))
	}
	coarse := graph.NewWithWeights(w)
	for u := 0; u < n; u++ {
		for _, h := range g.Neighbors(graph.Node(u)) {
			if graph.Node(u) < h.To && f2c[u] != f2c[h.To] {
				coarse.MustAddEdge(f2c[u], f2c[h.To], h.Weight)
			}
		}
	}
	return coarse, f2c
}

// csrDiff names the first field in which a and b differ, or "".
func csrDiff(a, b *graph.CSR) string {
	switch {
	case !slices.Equal(a.XAdj, b.XAdj):
		return "XAdj"
	case !slices.Equal(a.Adj, b.Adj):
		return "Adj"
	case !slices.Equal(a.AdjW, b.AdjW):
		return "AdjW"
	case !slices.Equal(a.NodeW, b.NodeW):
		return "NodeW"
	case a.EdgeWT != b.EdgeWT:
		return "EdgeWT"
	case a.NodeWT != b.NodeWT:
		return "NodeWT"
	case a.HXPins != nil || a.HPins != nil || a.HW != nil || a.HXInc != nil || a.HInc != nil || a.HWT != 0:
		return "hyperedges"
	}
	return ""
}

// TestContractMatchesReference contracts level after level with every
// heuristic and checks each CSR level array for array, and its
// fine→coarse map, against referenceContract. The finest graph carries
// nets; no coarse level may.
func TestContractMatchesReference(t *testing.T) {
	for _, n := range []int{60, 500, 3000} {
		for _, h := range match.All() {
			rng := rand.New(rand.NewSource(int64(n)))
			g := randomConnected(rng, n)
			for e := 0; e < n/10; e++ {
				pins := []graph.Node{graph.Node(rng.Intn(n))}
				for len(pins) < 4 {
					if p := graph.Node(rng.Intn(n)); !slices.Contains(pins, p) {
						pins = append(pins, p)
					}
				}
				g.MustAddHyperEdge(pins, int64(1+rng.Intn(9)))
			}
			ws := &arena.Workspace{}
			cur, ref := g.ToCSR(), g
			levels := 0
			for cur.NumNodes() > 20 {
				m, err := match.ComputeWS(ws, h, cur, 4, rng)
				if err != nil {
					t.Fatal(err)
				}
				if m.Pairs() == 0 {
					break
				}
				lvl, err := ContractWS(ws, cur, m)
				if err != nil {
					t.Fatal(err)
				}
				want, wantMap := referenceContract(ref, m)
				if d := csrDiff(lvl.Coarse, want.ToCSR()); d != "" {
					t.Fatalf("n=%d %v level %d: %s differs from the reference", n, h, levels, d)
				}
				if !slices.Equal(lvl.FineToCoarse, wantMap) {
					t.Fatalf("n=%d %v level %d: fine→coarse map differs", n, h, levels)
				}
				cur, ref = lvl.Coarse, want
				levels++
			}
			if levels < 2 {
				t.Fatalf("n=%d %v: only %d levels contracted", n, h, levels)
			}
		}
	}
}

// TestGraphFormsReplayBuild replays BuildWS's loop through the Graph
// forms, the way perfbench's probe does: Random, HeavyEdge and KMeans on
// one RNG stream, the MatchedWeight/Pairs best-of-three, Contract, and
// the MinShrink stop. It must make the same levels as BuildWS on the
// same seed, with the same winner and the same candidate scores.
func TestGraphFormsReplayBuild(t *testing.T) {
	star := graph.New(300) // one pair per level: the MinShrink stop
	for i := 1; i < 300; i++ {
		star.MustAddEdge(0, graph.Node(i), int64(i))
	}
	graphs := []*graph.Graph{star}
	for seed := int64(1); seed <= 3; seed++ {
		graphs = append(graphs, randomConnected(rand.New(rand.NewSource(seed)), 2000))
	}
	// Unit weights: matched weight is the pair count, so the randomized
	// heuristics can win levels too.
	rng := rand.New(rand.NewSource(4))
	unit := graph.New(2000)
	for i := 0; i < 5000; i++ {
		if u, v := graph.Node(rng.Intn(2000)), graph.Node(rng.Intn(2000)); u != v && !unit.HasEdge(u, v) {
			unit.MustAddEdge(u, v, 1)
		}
	}
	graphs = append(graphs, unit)
	const target, clusters, minShrink = 100, 4, 0.02
	for gi, g := range graphs {
		seed := int64(gi + 7)
		h, err := BuildWS(&arena.Workspace{}, g.ToCSR(), Options{TargetSize: target, RecordCandidates: true},
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		cur := g
		levels := 0
		for cur.NumNodes() > target {
			ms := []match.Matching{match.Random(cur, rng), match.HeavyEdge(cur), match.KMeans(cur, clusters, rng)}
			best, bestW, bestPairs := 0, int64(-1), -1
			for i, m := range ms {
				if w, p := m.MatchedWeight(cur), m.Pairs(); w > bestW || (w == bestW && p > bestPairs) {
					best, bestW, bestPairs = i, w, p
				}
			}
			if bestPairs == 0 {
				break
			}
			if levels >= h.Depth() {
				t.Fatalf("graph %d: replay made more than BuildWS's %d levels", gi, h.Depth())
			}
			got := h.Levels[levels]
			for i, m := range ms {
				if c := got.Candidates[i]; c.MatchedWeight != m.MatchedWeight(cur) || c.Pairs != m.Pairs() {
					t.Fatalf("graph %d level %d: %v scores differ from BuildWS's", gi, levels, c.Heuristic)
				}
			}
			lvl, err := Contract(cur, ms[best])
			if err != nil {
				t.Fatal(err)
			}
			if lvl.Coarse.NumNodes() != got.Coarse.NumNodes() || match.All()[best] != got.Heuristic {
				t.Fatalf("graph %d level %d: replay %d nodes by %v, BuildWS %d nodes by %v", gi, levels,
					lvl.Coarse.NumNodes(), match.All()[best], got.Coarse.NumNodes(), got.Heuristic)
			}
			levels++
			shrink := 1 - float64(lvl.Coarse.NumNodes())/float64(cur.NumNodes())
			cur = lvl.Coarse
			if shrink < minShrink {
				break
			}
		}
		if levels != h.Depth() {
			t.Fatalf("graph %d: replay made %d levels, BuildWS %d", gi, levels, h.Depth())
		}
	}
}
