package coarsen

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

func TestBuildNLevelContractsOneEdgePerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 50)
	h, err := BuildNLevelWS(&arena.Workspace{}, g, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one pair merges per level: node count decreases by 1.
	for i := 0; i <= h.Depth(); i++ {
		if i > 0 {
			if got := h.GraphAt(i-1).NumNodes() - h.GraphAt(i).NumNodes(); got != 1 {
				t.Fatalf("level %d contracted %d nodes, want 1", i, got)
			}
		}
		if err := h.GraphAt(i).Validate(); err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
	}
	if h.Coarsest().NumNodes() != 10 {
		t.Fatalf("coarsest = %d nodes, want exactly 10 (one-per-level)", h.Coarsest().NumNodes())
	}
}

func TestBuildNLevelPicksHeaviestEdge(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 100)
	g.MustAddEdge(2, 3, 7)
	h, err := BuildNLevelWS(&arena.Workspace{}, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", h.Depth())
	}
	lvl := h.Levels[0]
	// Nodes 1 and 2 (the weight-100 edge) must share a coarse node.
	if lvl.FineToCoarse[1] != lvl.FineToCoarse[2] {
		t.Fatal("heaviest edge not contracted first")
	}
}

func TestBuildNLevelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 40)
	h1, _ := BuildNLevelWS(&arena.Workspace{}, g, 8)
	h2, _ := BuildNLevelWS(&arena.Workspace{}, g, 8)
	if h1.Depth() != h2.Depth() {
		t.Fatal("depth differs")
	}
	for lvl := range h1.Levels {
		for u, c := range h1.Levels[lvl].FineToCoarse {
			if h2.Levels[lvl].FineToCoarse[u] != c {
				t.Fatal("n-level construction nondeterministic")
			}
		}
	}
}

func TestBuildNLevelProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 60)
	h, err := BuildNLevelWS(&arena.Workspace{}, g, 12)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int, h.Coarsest().NumNodes())
	for i := range parts {
		parts[i] = i % 3
	}
	fine, err := h.ProjectToFinest(parts)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.EdgeCut(h.Coarsest(), parts) != metrics.EdgeCut(g, fine) {
		t.Fatal("projection changed the cut")
	}
}

func TestBuildNLevelEdgelessStops(t *testing.T) {
	g := graph.New(20)
	h, err := BuildNLevelWS(&arena.Workspace{}, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 0 {
		t.Fatal("edgeless graph should not contract")
	}
}
