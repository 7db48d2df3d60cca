package refine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// twoClusters builds two dense clusters of size sz joined by one light
// bridge; the optimal bisection separates the clusters.
func twoClusters(sz int) *graph.Graph {
	g := graph.New(2 * sz)
	for c := 0; c < 2; c++ {
		base := c * sz
		for i := 0; i < sz; i++ {
			for j := i + 1; j < sz; j++ {
				g.MustAddEdge(graph.Node(base+i), graph.Node(base+j), 10)
			}
		}
	}
	g.MustAddEdge(0, graph.Node(sz), 1)
	return g
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(20))
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(15)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(15)))
		}
	}
	return g
}

func TestFMBisectFindsClusterSplit(t *testing.T) {
	g := twoClusters(8)
	// Adversarial start: interleaved assignment. FM runs with a slack-1
	// balance bound, the configuration the multilevel driver always uses;
	// unbounded FM is known to collapse to a near-empty side and stall
	// (the original motivation for FM's balance criterion).
	parts := make([]int, g.NumNodes())
	for i := range parts {
		parts[i] = i % 2
	}
	st := FMBisect(g, parts, 9, 0)
	if st.CutAfter != 1 {
		t.Fatalf("cut after FM = %d, want 1 (bridge only); stats %+v", st.CutAfter, st)
	}
	if !st.Improved() {
		t.Fatal("FM should report improvement")
	}
	if got := metrics.EdgeCut(g, parts); got != st.CutAfter {
		t.Fatalf("reported cut %d != recomputed %d", st.CutAfter, got)
	}
	sizes := metrics.PartSizes(parts, 2)
	if sizes[0] != 8 || sizes[1] != 8 {
		t.Fatalf("balance bound violated: %v", sizes)
	}
}

func TestFMBisectRespectsResourceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 40)
		parts := make([]int, 40)
		for i := range parts {
			parts[i] = rng.Intn(2)
		}
		// Bound at current max side so FM may move but never overflow.
		r := metrics.PartResources(g, parts, 2)
		rmax := r[0]
		if r[1] > rmax {
			rmax = r[1]
		}
		FMBisect(g, parts, rmax, 0)
		after := metrics.PartResources(g, parts, 2)
		if after[0] > rmax || after[1] > rmax {
			t.Fatalf("trial %d: FM overflowed resource bound %d: %v", trial, rmax, after)
		}
	}
}

func TestFMBisectNeverEmptiesASide(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 100)
	g.MustAddEdge(1, 2, 100)
	parts := []int{0, 1, 1}
	// Merging everything into one side would zero the cut, but a bisection
	// must keep both sides non-empty.
	FMBisect(g, parts, 0, 0)
	sizes := metrics.PartSizes(parts, 2)
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Fatalf("FM emptied a side: %v", sizes)
	}
}

func TestFMBisectNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 30+rng.Intn(40))
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = rng.Intn(2)
		}
		before := metrics.EdgeCut(g, parts)
		st := FMBisect(g, parts, 0, 0)
		after := metrics.EdgeCut(g, parts)
		if after > before {
			t.Fatalf("trial %d: FM worsened cut %d -> %d", trial, before, after)
		}
		if st.CutBefore != before || st.CutAfter != after {
			t.Fatalf("trial %d: stats mismatch %+v vs %d->%d", trial, st, before, after)
		}
	}
}

func TestKWayFMImprovesAndRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		g := randomConnected(rng, 60)
		k := 2 + rng.Intn(4)
		parts := make([]int, 60)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		before := metrics.EdgeCut(g, parts)
		res := metrics.PartResources(g, parts, k)
		var rmax int64
		for _, r := range res {
			if r > rmax {
				rmax = r
			}
		}
		st := KWayFM(g, parts, k, rmax, 0)
		after := metrics.EdgeCut(g, parts)
		if after > before {
			t.Fatalf("trial %d: k-way FM worsened cut", trial)
		}
		if st.CutAfter != after {
			t.Fatalf("trial %d: stats cut mismatch", trial)
		}
		for i, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				t.Fatalf("trial %d: part %d overflowed: %d > %d", trial, i, r, rmax)
			}
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestKWayFMKeepsPartsNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(rng, 30)
	k := 5
	parts := make([]int, 30)
	for i := range parts {
		parts[i] = i % k
	}
	KWayFM(g, parts, k, 0, 0)
	for p, s := range metrics.PartSizes(parts, k) {
		if s == 0 {
			t.Fatalf("part %d emptied", p)
		}
	}
}

func TestPropertyFMPreservesAssignmentValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 10+rng.Intn(50))
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = rng.Intn(2)
		}
		FMBisect(g, parts, 0, 3)
		if metrics.Validate(g, parts, 2) != nil {
			return false
		}
		k := 2 + rng.Intn(4)
		kparts := make([]int, g.NumNodes())
		for i := range kparts {
			kparts[i] = rng.Intn(k)
		}
		KWayFM(g, kparts, k, 0, 3)
		return metrics.Validate(g, kparts, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
