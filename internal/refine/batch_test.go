package refine

import (
	"math/rand"
	"reflect"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// randomKWayStart assigns every node a random part but guarantees each of
// the k parts is non-empty (the batch pass, like KWayFM, promises never to
// empty a part — the promise is vacuous on starts that already have one).
func randomKWayStart(rng *rand.Rand, n, k int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	// Pin parts 0..k-1 onto distinct nodes so no part starts empty.
	for p := 0; p < k && p < n; p++ {
		parts[p] = p
	}
	return parts
}

func TestBatchKWayNeverWorsensAndStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 40+rng.Intn(60))
		n := g.NumNodes()
		k := 2 + rng.Intn(4)
		parts := randomKWayStart(rng, n, k)
		before := metrics.EdgeCut(g, parts)
		st := BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, BatchOptions{K: k})
		after := metrics.EdgeCut(g, parts)
		if after > before {
			t.Fatalf("trial %d: batch pass worsened cut %d -> %d", trial, before, after)
		}
		if st.CutBefore != before || st.CutAfter != after {
			t.Fatalf("trial %d: stats %+v disagree with recomputed %d -> %d", trial, st, before, after)
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p, s := range metrics.PartSizes(parts, k) {
			if s == 0 {
				t.Fatalf("trial %d: batch pass emptied part %d", trial, p)
			}
		}
	}
}

func TestBatchKWayImprovesInterleavedClusters(t *testing.T) {
	g := twoClusters(16)
	parts := make([]int, g.NumNodes())
	for i := range parts {
		parts[i] = i % 2
	}
	before := metrics.EdgeCut(g, parts)
	st := BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, BatchOptions{K: 2, Record: true})
	after := metrics.EdgeCut(g, parts)
	if after >= before {
		t.Fatalf("batch pass did not improve interleaved clusters: %d -> %d", before, after)
	}
	if !st.Improved() {
		t.Fatalf("stats should report improvement: %+v", st)
	}
	if st.Rounds == 0 || st.Moves == 0 {
		t.Fatalf("improving pass recorded no rounds/moves: %+v", st)
	}
	if len(st.RoundSizes) != st.Rounds || len(st.RoundGains) != st.Rounds {
		t.Fatalf("Record bookkeeping mismatch: %+v", st)
	}
	var moves int
	for _, s := range st.RoundSizes {
		moves += s
	}
	if moves != st.Moves {
		t.Fatalf("RoundSizes sum %d != Moves %d", moves, st.Moves)
	}
}

func TestBatchKWayRespectsRmax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		g := randomConnected(rng, 50)
		k := 2 + rng.Intn(3)
		parts := randomKWayStart(rng, 50, k)
		var rmax int64
		for _, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				rmax = r
			}
		}
		BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, BatchOptions{K: k, Constraints: metrics.Constraints{Rmax: rmax}})
		for p, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				t.Fatalf("trial %d: part %d overflowed Rmax: %d > %d", trial, p, r, rmax)
			}
		}
	}
}

// TestBatchKWayDeterministicAcrossWorkers is the core determinism contract:
// the pass must produce bit-identical partitions and statistics for any
// worker count, because every sweep writes into per-node slots and the
// selection is index-ordered.
func TestBatchKWayDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 80+rng.Intn(80))
		n := g.NumNodes()
		k := 2 + rng.Intn(5)
		base := randomKWayStart(rng, n, k)
		var rmax int64
		for _, r := range metrics.PartResources(g, base, k) {
			if r > rmax {
				rmax = r
			}
		}
		opts := BatchOptions{K: k, Constraints: metrics.Constraints{Rmax: rmax}, Record: true}

		var refParts []int
		var refStats BatchStats
		for i, workers := range []int{1, 2, 3, 4, 7, 16} {
			parts := append([]int(nil), base...)
			o := opts
			o.Workers = workers
			st := BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, o)
			if i == 0 {
				refParts, refStats = parts, st
				continue
			}
			if !reflect.DeepEqual(parts, refParts) {
				t.Fatalf("trial %d: workers=%d diverged from workers=1 partition", trial, workers)
			}
			if !reflect.DeepEqual(st, refStats) {
				t.Fatalf("trial %d: workers=%d stats %+v != workers=1 stats %+v", trial, workers, st, refStats)
			}
		}
	}
}

// TestBatchKWayDifferentialStateMatchesMetrics bit-compares, after every
// applied round, the incremental pstate quantities against a from-scratch
// recomputation on the state's own assignment — the same contract the
// pstate invariants harness enforces, checked here at the batch-apply
// boundary where the refiner issues many moves between checks.
func TestBatchKWayDifferentialStateMatchesMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 8; trial++ {
		g := randomConnected(rng, 60+rng.Intn(60))
		n := g.NumNodes()
		k := 2 + rng.Intn(4)
		parts := randomKWayStart(rng, n, k)
		var cons metrics.Constraints
		if trial%2 == 0 {
			var rmax int64
			for _, r := range metrics.PartResources(g, parts, k) {
				if r > rmax {
					rmax = r
				}
			}
			cons = metrics.Constraints{Bmax: 1 + int64(rng.Intn(200)), Rmax: rmax}
		}
		hooks := 0
		BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, BatchOptions{
			K:           k,
			Constraints: cons,
			RoundHook: func(round int, st *pstate.State) {
				hooks++
				pp := st.Parts()
				if got, want := st.Cut(), metrics.EdgeCut(g, pp); got != want {
					t.Fatalf("trial %d round %d: cut maintained %d, recomputed %d", trial, round, got, want)
				}
				bw := metrics.BandwidthMatrix(g, pp, k)
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						if got := st.Bandwidth(i, j); got != bw[i][j] {
							t.Fatalf("trial %d round %d: bandwidth[%d][%d] maintained %d, recomputed %d",
								trial, round, i, j, got, bw[i][j])
						}
					}
				}
				res := metrics.PartResources(g, pp, k)
				sizes := metrics.PartSizes(pp, k)
				for p := 0; p < k; p++ {
					if st.Resource(p) != res[p] || st.Count(p) != sizes[p] {
						t.Fatalf("trial %d round %d: part %d maintained (%d,%d), recomputed (%d,%d)",
							trial, round, p, st.Resource(p), st.Count(p), res[p], sizes[p])
					}
				}
				if got, want := st.Feasible(), metrics.Feasible(g, pp, k, cons); got != want {
					t.Fatalf("trial %d round %d: feasible maintained %v, recomputed %v", trial, round, got, want)
				}
			},
		})
		if hooks == 0 && metrics.EdgeCut(g, parts) > 0 {
			// Not an error by itself (the start may already be locally
			// optimal), but with 8 trials at these sizes at least some must
			// exercise the hook or the test is vacuous.
			t.Logf("trial %d: no rounds applied", trial)
		}
	}
}

// TestBatchKWayPreApplyPanicLeavesPartsUntouched pins the failure-isolation
// contract the engine's chaos failpoint relies on: a panic at the pre-apply
// boundary must propagate without having mutated the caller's assignment.
func TestBatchKWayPreApplyPanicLeavesPartsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomConnected(rng, 60)
	parts := randomKWayStart(rng, 60, 3)
	orig := append([]int(nil), parts...)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the PreApply panic to propagate")
			}
		}()
		BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, BatchOptions{K: 3, PreApply: func(round, batch int) {
			panic("injected")
		}})
	}()
	if !reflect.DeepEqual(parts, orig) {
		t.Fatal("panic at the apply boundary mutated the caller's assignment")
	}
}

func TestBatchKWayDegenerateInputs(t *testing.T) {
	g := graph.New(1)
	parts := []int{0}
	if st := BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, BatchOptions{K: 1}); st.Rounds != 0 {
		t.Fatalf("k=1 should be a no-op, got %+v", st)
	}
	g2 := twoClusters(4)
	parts2 := make([]int, g2.NumNodes())
	for i := range parts2 {
		parts2[i] = i % 2
	}
	// MaxRounds=1 must stop after one round regardless of remaining gain.
	st := BatchKWayWS(&arena.Workspace{}, g2.ToCSR(), parts2, BatchOptions{K: 2, MaxRounds: 1})
	if st.Rounds > 1 {
		t.Fatalf("MaxRounds=1 ran %d rounds", st.Rounds)
	}
}

// FuzzBatchSelect feeds fuzz-shaped instances through the batch pass at
// several worker counts and demands identical partitions, plus the basic
// safety properties (no worsened cut, valid assignment, non-empty parts).
func FuzzBatchSelect(f *testing.F) {
	f.Add(int64(1), 20, 3)
	f.Add(int64(7), 64, 4)
	f.Add(int64(42), 9, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, k int) {
		if n < 4 || n > 200 || k < 2 || k > 8 || k > n {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, n)
		base := randomKWayStart(rng, n, k)
		before := metrics.EdgeCut(g, base)
		var rmax int64
		for _, r := range metrics.PartResources(g, base, k) {
			if r > rmax {
				rmax = r
			}
		}
		opts := BatchOptions{K: k, Constraints: metrics.Constraints{Rmax: rmax}}

		var ref []int
		for i, workers := range []int{1, 3, 8} {
			parts := append([]int(nil), base...)
			o := opts
			o.Workers = workers
			BatchKWayWS(&arena.Workspace{}, g.ToCSR(), parts, o)
			if i == 0 {
				ref = parts
				if metrics.EdgeCut(g, parts) > before {
					t.Fatalf("batch pass worsened cut")
				}
				if err := metrics.Validate(g, parts, k); err != nil {
					t.Fatal(err)
				}
				for p, s := range metrics.PartSizes(parts, k) {
					if s == 0 {
						t.Fatalf("part %d emptied", p)
					}
				}
				for p, r := range metrics.PartResources(g, parts, k) {
					if r > rmax {
						t.Fatalf("part %d overflowed Rmax: %d > %d", p, r, rmax)
					}
				}
				continue
			}
			if !reflect.DeepEqual(parts, ref) {
				t.Fatalf("workers=%d produced a different partition than workers=1", workers)
			}
		}
	})
}
