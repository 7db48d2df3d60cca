package coarsen

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/match"
)

func BenchmarkBuildHierarchyBestOfThree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomConnected(rng, 10000).ToCSR()
	ws := &arena.Workspace{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWS(ws, c, Options{TargetSize: 100}, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHierarchyHEMOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomConnected(rng, 10000).ToCSR()
	ws := &arena.Workspace{}
	opts := Options{TargetSize: 100, Heuristics: []match.Heuristic{match.HeuristicHeavyEdge}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWS(ws, c, opts, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomConnected(rng, 10000).ToCSR()
	ws := &arena.Workspace{}
	m, _ := match.ComputeWS(ws, match.HeuristicHeavyEdge, c, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ContractWS(ws, c, m); err != nil {
			b.Fatal(err)
		}
	}
}
