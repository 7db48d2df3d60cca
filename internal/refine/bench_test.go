package refine

import (
	"math/rand"
	"testing"

	"ppnpart/internal/metrics"
)

func BenchmarkFMBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 5000)
	base := make([]int, 5000)
	for i := range base {
		base[i] = i % 2
	}
	bound := g.TotalNodeWeight()/2 + g.MaxNodeWeight()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		FMBisect(g, parts, bound, 4)
	}
}

func BenchmarkKWayFM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 5000)
	base := make([]int, 5000)
	for i := range base {
		base[i] = i % 8
	}
	bound := g.TotalNodeWeight()/8 + g.MaxNodeWeight()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		KWayFM(g, parts, 8, bound, 4)
	}
}

func BenchmarkRepairBandwidth(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 2000)
	base := make([]int, 2000)
	for i := range base {
		base[i] = rng.Intn(4)
	}
	c := metrics.Constraints{Bmax: g.TotalEdgeWeight() / 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		RepairBandwidth(g, parts, 4, c, 4)
	}
}

func BenchmarkTabuSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(rng, 500)
	base := make([]int, 500)
	for i := range base {
		base[i] = rng.Intn(4)
	}
	c := metrics.Constraints{Bmax: g.TotalEdgeWeight() / 4, Rmax: g.TotalNodeWeight()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		TabuSearch(g, parts, 4, c, TabuOptions{Iterations: 200})
	}
}

func BenchmarkAnneal(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 2000)
	base := make([]int, 2000)
	for i := range base {
		base[i] = rng.Intn(4)
	}
	c := metrics.Constraints{Bmax: g.TotalEdgeWeight() / 4, Rmax: g.TotalNodeWeight()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		Anneal(g, parts, 4, c, AnnealOptions{Iterations: 5000}, rand.New(rand.NewSource(9)))
	}
}
