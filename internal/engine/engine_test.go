package engine

import (
	"context"
	"math/rand"
	"testing"

	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// Tests for the staged solver itself: the cyclic re-coarsen retry path
// (forced infeasible intermediates via swapped-in degenerate stages) and
// cancellation at the solver and cycle level.

func testGraph(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.RandomConnected(n, m,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// degenerateSeed delegates to the real initial partitioner, then stomps
// the assignment to all-zeros for the first `until` cycles — guaranteed
// infeasible whenever Rmax is below the total node weight.
type degenerateSeed struct {
	inner Stage
	until int
}

func (s degenerateSeed) Phase() Phase { return PhaseInitialPartition }

func (s degenerateSeed) Run(cy *Cycle) error {
	if err := s.inner.Run(cy); err != nil {
		return err
	}
	if cy.Index < s.until {
		for i := range cy.Parts {
			cy.Parts[i] = 0
		}
	}
	return nil
}

// gatedRefine skips refinement for the first `until` cycles so the
// degenerate seed survives uncoarsening intact.
type gatedRefine struct {
	inner Stage
	until int
}

func (s gatedRefine) Phase() Phase { return PhaseRefine }

func (s gatedRefine) Run(cy *Cycle) error {
	if cy.Index < s.until {
		return nil
	}
	return s.inner.Run(cy)
}

// TestRetryPathForcedInfeasible drives the cyclic re-coarsen retry loop
// deterministically: the first three cycles are forced to produce an
// all-in-one-part (resource-infeasible) assignment, so the retry stage
// must record "retry" decisions and keep cycling until the first
// unforced cycle turns feasible.
func TestRetryPathForcedInfeasible(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nlevel bool
	}{
		{"multilevel", false},
		{"nlevel", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const until = 3
			g := testGraph(t, 60, 150, 7)
			s := New(Config{
				K:                4,
				Constraints:      metrics.Constraints{Rmax: 2000},
				Seed:             5,
				MaxCycles:        8,
				Parallelism:      1,
				NLevelCoarsening: tc.nlevel,
			})
			s.SetStage(degenerateSeed{inner: s.Stage(PhaseInitialPartition), until: until})
			s.SetStage(gatedRefine{inner: s.Stage(PhaseRefine), until: until})

			tr := &Trace{}
			out := s.Solve(context.Background(), g, tr)
			if !out.Feasible {
				t.Fatalf("solve stayed infeasible after forced cycles: %+v", out)
			}
			if out.CyclesRun != until+1 {
				t.Fatalf("cycles run = %d, want %d (three forced retries, then feasible)",
					out.CyclesRun, until+1)
			}
			if out.BestCycle != until {
				t.Fatalf("best cycle = %d, want %d (forced cycles are infeasible)", out.BestCycle, until)
			}

			td := tr.Data()
			if len(td.Cycles) != until+1 {
				t.Fatalf("traced %d cycles, want %d", len(td.Cycles), until+1)
			}
			for i, cyc := range td.Cycles {
				if cyc.Retry == nil {
					t.Fatalf("cycle %d has no retry record", i)
				}
				if i < until {
					if cyc.Feasible || cyc.Retry.Reason != "retry" || !cyc.Retry.Continue {
						t.Fatalf("forced cycle %d: feasible=%v retry=%+v, want infeasible retry-continue",
							i, cyc.Feasible, cyc.Retry)
					}
				} else {
					if !cyc.Feasible || cyc.Retry.Reason != "feasible-stop" || cyc.Retry.Continue {
						t.Fatalf("cycle %d: feasible=%v retry=%+v, want feasible stop",
							i, cyc.Feasible, cyc.Retry)
					}
				}
			}
			if sum := tr.Summary(); sum.Retries != until {
				t.Fatalf("summary retries = %d, want %d", sum.Retries, until)
			}
		})
	}
}

// TestSolveCancelledContext pins the already-cancelled behavior the core
// layer relies on: no cycle runs, the fallback round-robin assignment is
// returned full-length, and the outcome reports Stopped.
func TestSolveCancelledContext(t *testing.T) {
	g := testGraph(t, 40, 90, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &Trace{}
	out := New(Config{K: 3, Seed: 1, MaxCycles: 4}).Solve(ctx, g, tr)
	if !out.Stopped {
		t.Fatal("outcome not marked Stopped under a cancelled context")
	}
	if out.CyclesRun != 0 {
		t.Fatalf("cycles run = %d, want 0", out.CyclesRun)
	}
	if len(out.Parts) != g.NumNodes() {
		t.Fatalf("parts length = %d, want %d", len(out.Parts), g.NumNodes())
	}
	for i, p := range out.Parts {
		if p != i%3 {
			t.Fatalf("parts[%d] = %d, want round-robin %d", i, p, i%3)
		}
	}
	if n := len(tr.Data().Cycles); n != 0 {
		t.Fatalf("traced %d cycles, want 0 (loop never entered)", n)
	}
}

// cancellingRefine cancels the run on its first invocation, which lands
// at the coarsest level — forcing gpCycle's mid-uncoarsening projection
// path (best-effort full-length result, cycle marked cancelled).
type cancellingRefine struct {
	inner  Stage
	cancel context.CancelFunc
}

func (s cancellingRefine) Phase() Phase { return PhaseRefine }

func (s cancellingRefine) Run(cy *Cycle) error {
	s.cancel()
	return s.inner.Run(cy)
}

func TestSolveMidCycleCancellationProjectsBestEffort(t *testing.T) {
	// Well above CoarsenTarget so the hierarchy is at least one level deep
	// and the cancellation lands mid-uncoarsening, not after a flat seed.
	g := testGraph(t, 300, 900, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(Config{K: 4, Seed: 5, MaxCycles: 8, Parallelism: 1})
	s.SetStage(cancellingRefine{inner: s.Stage(PhaseRefine), cancel: cancel})

	tr := &Trace{}
	out := s.Solve(ctx, g, tr)
	if !out.Stopped {
		t.Fatal("outcome not marked Stopped after mid-cycle cancellation")
	}
	if len(out.Parts) != g.NumNodes() {
		t.Fatalf("parts length = %d, want %d (projection must reach the finest level)",
			len(out.Parts), g.NumNodes())
	}
	td := tr.Data()
	if len(td.Cycles) == 0 {
		t.Fatal("no cycles traced")
	}
	if !td.Cycles[0].Cancelled {
		t.Fatal("cycle 0 not marked cancelled in the trace")
	}
}
