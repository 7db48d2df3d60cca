package initpart

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/metrics"
)

func BenchmarkGreedyGrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomConnected(rng, 200).ToCSR() // coarsest-graph scale
	opts := GreedyOptions{K: 4, Restarts: 10,
		Constraints: metrics.Constraints{Rmax: c.NodeWT / 3}}
	ws := &arena.Workspace{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, err := GreedyGrowWS(ws, c, opts, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		ws.Ints.Put(parts)
	}
}

func BenchmarkRecursiveBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RecursiveBisect(g, 4, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectralBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpectralBisect(g, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFiedlerVector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FiedlerVector(g, rand.New(rand.NewSource(2)))
	}
}
