package refine

import (
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

func TestRebalanceVectorFixesOverflow(t *testing.T) {
	// 6 nodes, 2 kinds. Part 0 initially holds all BRAM-heavy nodes.
	g := graph.New(6)
	for i := 1; i < 6; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), 1)
	}
	vecs := [][]int64{
		{10, 4}, {10, 4}, {10, 4}, // BRAM-heavy
		{10, 0}, {10, 0}, {10, 0},
	}
	parts := []int{0, 0, 0, 1, 1, 1}
	vc := metrics.VectorConstraints{Rmax: []int64{40, 8}}
	if metrics.VectorFeasible(vecs, parts, 2, vc) {
		t.Fatal("setup: expected initial overflow (part 0 BRAM 12 > 8)")
	}
	moves, ok := RebalanceVectorWS(&arena.Workspace{}, g.ToCSR(), vecs, parts, 2, vc, 0)
	if !ok {
		t.Fatalf("rebalance failed; totals=%v", metrics.PartResourceVectors(vecs, parts, 2))
	}
	if moves == 0 {
		t.Fatal("expected moves")
	}
	if !metrics.VectorFeasible(vecs, parts, 2, vc) {
		t.Fatal("claimed fit but infeasible")
	}
}

func TestRebalanceVectorImpossible(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	vecs := [][]int64{{100, 1}, {1, 1}}
	parts := []int{0, 1}
	vc := metrics.VectorConstraints{Rmax: []int64{50, 10}}
	_, ok := RebalanceVectorWS(&arena.Workspace{}, g.ToCSR(), vecs, parts, 2, vc, 0)
	if ok {
		t.Fatal("impossible instance reported balanced")
	}
}

func TestRebalanceVectorNoop(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	vecs := [][]int64{{1, 1}, {1, 1}}
	parts := []int{0, 1}
	moves, ok := RebalanceVectorWS(&arena.Workspace{}, g.ToCSR(), vecs, parts, 2, metrics.VectorConstraints{Rmax: []int64{5, 5}}, 0)
	if !ok || moves != 0 {
		t.Fatal("fitting input should be a no-op")
	}
	moves, ok = RebalanceVectorWS(&arena.Workspace{}, g.ToCSR(), vecs, parts, 2, metrics.VectorConstraints{}, 0)
	if !ok || moves != 0 {
		t.Fatal("inactive constraints should be a no-op")
	}
}

func TestRebalanceVectorPrefersCheapMoves(t *testing.T) {
	// Node 2 is heavily tied to part 0; node 3 is loose. Both could fix
	// the overflow; the pass should move the loose one.
	g := graph.New(5)
	g.MustAddEdge(0, 2, 100)
	g.MustAddEdge(1, 2, 100)
	g.MustAddEdge(0, 3, 1)
	g.MustAddEdge(3, 4, 1)
	vecs := [][]int64{{1, 0}, {1, 0}, {1, 2}, {1, 2}, {1, 0}}
	parts := []int{0, 0, 0, 0, 1}
	vc := metrics.VectorConstraints{Rmax: []int64{10, 2}}
	// Part 0 BRAM = 4 > 2: must shed node 2 or 3.
	_, ok := RebalanceVectorWS(&arena.Workspace{}, g.ToCSR(), vecs, parts, 2, vc, 0)
	if !ok {
		t.Fatal("rebalance failed")
	}
	if parts[2] != 0 {
		t.Fatal("moved the expensive node instead of the loose one")
	}
	if parts[3] == 0 {
		t.Fatal("loose node not moved")
	}
}
