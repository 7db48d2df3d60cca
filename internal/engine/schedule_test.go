package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// Tests for the cycle schedule: cycle 0 runs alone unless
// MinimizeAfterFeasible, later batches are Parallelism wide, and no
// batch width changes the outcome or the OmitTiming trace.

// disjointRings builds k rings of n weight-10 nodes with no edge between
// rings, so a K=k partition with Rmax = n·10 can reach a cut of
// zero: a perfect (goodness-0) incumbent that prunes every later cycle
// under MinimizeAfterFeasible.
func disjointRings(k, n int) *graph.Graph {
	g := graph.New(0)
	for r := 0; r < k; r++ {
		first := g.AddNode(10)
		prev := first
		for i := 1; i < n; i++ {
			u := g.AddNode(10)
			g.MustAddEdge(prev, u, 5)
			prev = u
		}
		g.MustAddEdge(prev, first, 5)
	}
	return g
}

// scheduleFree strips the one part of a trace that describes the batch
// schedule rather than the search: the overshoot stubs of cycles a serial
// run never starts (their number is a function of the batch width).
// Everything else must be byte-identical at every width.
func scheduleFree(t *testing.T, tr *Trace) string {
	t.Helper()
	td := tr.Data()
	var kept []*CycleTrace
	for _, ct := range td.Cycles {
		if !ct.Discarded {
			kept = append(kept, ct)
			continue
		}
		if !reflect.DeepEqual(*ct, CycleTrace{Cycle: ct.Cycle, Discarded: true}) {
			t.Fatalf("overshoot cycle %d is not a canonical stub: %+v", ct.Cycle, ct)
		}
	}
	td.Cycles = kept
	b, err := json.MarshalIndent(&td, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// referenceNoPrune is the search with pruning taken out: every cycle
// runs to completion through runCycle with its own fresh incumbent, so no
// other cycle's result is visible to it and nothing abandons, and the
// serial reduction then walks the cycles in order — strict goodness
// improvement, ties to the lower cycle — until the retry phase stops the
// search. Solve's exact pruning rules must reproduce its outcome.
func referenceNoPrune(s *Solver, g *graph.Graph) *Outcome {
	ctx := context.Background()
	fcsr := g.ToCSR()
	out := &Outcome{BestCycle: -1}
	for cycle := 0; cycle < s.cfg.MaxCycles; cycle++ {
		c := s.runCycle(ctx, fcsr, cycle, newIncumbent(), nil)
		out.CyclesRun++
		if out.BestCycle < 0 || c.goodness < out.Goodness {
			out.Parts, out.Goodness, out.Feasible, out.BestCycle = c.parts, c.goodness, c.feasible, cycle
		}
		rc := &Cycle{Ctx: ctx, Cfg: &s.cfg, Index: cycle, Feasible: c.feasible, Goodness: c.goodness}
		s.runStage(rc, PhaseRetry)
		if rc.StopSearch {
			break
		}
	}
	return out
}

// sameOutcome reports whether two outcomes agree on everything the
// reduction decides.
func sameOutcome(a, b *Outcome) bool {
	return reflect.DeepEqual(a.Parts, b.Parts) && a.Goodness == b.Goodness &&
		a.Feasible == b.Feasible && a.CyclesRun == b.CyclesRun && a.BestCycle == b.BestCycle
}

// TestScheduleDifferential crosses batch widths 1, 2 and 4 with
// MinimizeAfterFeasible on and off and three search shapes: cycle 0
// feasible, cycles 0–2 forced infeasible (the retry test's degenerate
// seed), and a perfect cycle-0 incumbent that prunes every later cycle.
// Under prune=deterministic every width must give the same Outcome and
// the same OmitTiming trace. Under prune=off every width must give the
// Outcome of referenceNoPrune, which never abandons a cycle: pruning only
// ever drops results the reduction would discard.
func TestScheduleDifferential(t *testing.T) {
	const forcedUntil = 3
	g := testGraph(t, 300, 900, 33)
	cons := metrics.Constraints{
		Rmax: g.TotalNodeWeight()*115/(100*4) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / 4,
	}
	shapes := []struct {
		name   string
		g      *graph.Graph
		cons   metrics.Constraints
		forced bool
	}{
		{"feasible", g, cons, false},
		{"forced-infeasible", g, cons, true},
		{"perfect", disjointRings(4, 100), metrics.Constraints{Rmax: 1000}, false},
	}
	for _, sh := range shapes {
		for _, minimize := range []bool{false, true} {
			solver := func(par int) *Solver {
				s := New(Config{
					K:                     4,
					Constraints:           sh.cons,
					Seed:                  5,
					MaxCycles:             8,
					Parallelism:           par,
					MinimizeAfterFeasible: minimize,
				})
				if sh.forced {
					s.SetStage(degenerateSeed{inner: s.Stage(PhaseInitialPartition), until: forcedUntil})
					s.SetStage(gatedRefine{inner: s.Stage(PhaseRefine), until: forcedUntil})
				}
				return s
			}
			t.Run(fmt.Sprintf("%s/minimize=%v/prune=deterministic", sh.name, minimize), func(t *testing.T) {
				var ref *Outcome
				var refTrace string
				for _, par := range []int{1, 2, 4} {
					tr := &Trace{OmitTiming: true}
					out := solver(par).Solve(context.Background(), sh.g, tr)
					got := scheduleFree(t, tr)
					if ref == nil {
						ref, refTrace = out, got
						if sh.name == "perfect" && (out.BestCycle != 0 || out.Goodness != 0 || !out.Feasible) {
							t.Fatalf("cycle 0 is not a perfect incumbent (%+v); the case prunes nothing", out)
						}
						continue
					}
					if !sameOutcome(out, ref) {
						t.Fatalf("parallelism %d outcome {feasible %v goodness %v cycles %d best %d} differs from parallelism 1 {%v %v %d %d}",
							par, out.Feasible, out.Goodness, out.CyclesRun, out.BestCycle,
							ref.Feasible, ref.Goodness, ref.CyclesRun, ref.BestCycle)
					}
					if got != refTrace {
						t.Fatalf("parallelism %d trace differs from parallelism 1:\n%s\nvs\n%s", par, got, refTrace)
					}
				}
				if sh.forced && ref.BestCycle < forcedUntil {
					t.Fatalf("best cycle %d is a forced-infeasible one", ref.BestCycle)
				}
			})
			t.Run(fmt.Sprintf("%s/minimize=%v/prune=off", sh.name, minimize), func(t *testing.T) {
				ref := referenceNoPrune(solver(1), sh.g)
				if sh.name == "feasible" && minimize {
					// A rule that pruned on any lower feasible incumbent,
					// not only a perfect one, would drop the best cycle.
					if ref.BestCycle <= 0 || ref.Goodness == 0 {
						t.Fatalf("reference best cycle %d (goodness %v): the case needs an imperfect feasible cycle 0 beaten later",
							ref.BestCycle, ref.Goodness)
					}
					if c0 := solver(1).runCycle(context.Background(), sh.g.ToCSR(), 0, newIncumbent(), nil); !c0.feasible {
						t.Fatal("cycle 0 is infeasible; the case prunes nothing under minimize")
					}
				}
				for _, par := range []int{1, 2, 4} {
					out := solver(par).Solve(context.Background(), sh.g, nil)
					if !sameOutcome(out, ref) {
						t.Fatalf("parallelism %d outcome {feasible %v goodness %v cycles %d best %d} differs from the no-prune reference {%v %v %d %d}",
							par, out.Feasible, out.Goodness, out.CyclesRun, out.BestCycle,
							ref.Feasible, ref.Goodness, ref.CyclesRun, ref.BestCycle)
					}
				}
			})
		}
	}
}

// countingStage counts its runs across every cycle of a solve.
type countingStage struct {
	inner Stage
	n     *atomic.Int32
}

func (s countingStage) Phase() Phase { return s.inner.Phase() }

func (s countingStage) Run(cy *Cycle) error {
	s.n.Add(1)
	return s.inner.Run(cy)
}

// TestFeasibleCycleZeroRunsAlone pins the schedule's point: when cycle 0
// is feasible, no sibling cycle starts beside it, so a Parallelism-4
// solve coarsens exactly once. With MinimizeAfterFeasible every cycle
// runs anyway and cycle 0 shares a full-width batch.
func TestFeasibleCycleZeroRunsAlone(t *testing.T) {
	g := testGraph(t, 300, 900, 33)
	cons := metrics.Constraints{
		Rmax: g.TotalNodeWeight()*115/(100*4) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / 4,
	}
	for _, tc := range []struct {
		minimize bool
		want     int32
	}{
		{false, 1},
		{true, 4},
	} {
		var n atomic.Int32
		s := New(Config{K: 4, Constraints: cons, Seed: 9, MaxCycles: 4, Parallelism: 4,
			MinimizeAfterFeasible: tc.minimize})
		s.SetStage(countingStage{inner: s.Stage(PhaseCoarsen), n: &n})
		out := s.Solve(context.Background(), g, nil)
		if !tc.minimize && (!out.Feasible || out.BestCycle != 0) {
			t.Fatalf("cycle 0 not feasible (%+v); the test needs a feasible first cycle", out)
		}
		if got := n.Load(); got != tc.want {
			t.Fatalf("minimize=%v: coarsen stage ran %d times, want %d", tc.minimize, got, tc.want)
		}
	}
}
