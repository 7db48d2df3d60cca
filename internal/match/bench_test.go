package match

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(100))
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(20)))
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(20)))
		}
	}
	return g
}

// benchCompute times ComputeWS on a 10k-node CSR with one persistent
// workspace, the way each coarsening level calls it.
func benchCompute(b *testing.B, h Heuristic) {
	c := benchGraph(10000).ToCSR()
	ws := &arena.Workspace{}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeWS(ws, h, c, 4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomMatching(b *testing.B) { benchCompute(b, HeuristicRandom) }

func BenchmarkHeavyEdgeMatching(b *testing.B) { benchCompute(b, HeuristicHeavyEdge) }

func BenchmarkKMeansMatching(b *testing.B) { benchCompute(b, HeuristicKMeans) }
