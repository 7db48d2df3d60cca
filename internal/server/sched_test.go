package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// TestSettledJobsReleaseInputs: a terminal job stays in the retention
// ring for MaxFinishedJobs settlements, so it must not keep its decoded
// request and graph alive. Covers the three ways a job settles: a
// finished solve, a cancellation before the solve started, and a solver
// that panics under every configuration.
func TestSettledJobsReleaseInputs(t *testing.T) {
	submit := func(t *testing.T, s *Scheduler, body string) *Job {
		t.Helper()
		req, g, err := DecodeJobRequest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		j, _, _, err := s.Submit(req, g)
		if err != nil || j == nil {
			t.Fatalf("submit: job %v, err %v", j, err)
		}
		return j
	}
	settled := func(t *testing.T, j *Job, want JobState, outcome string) {
		t.Helper()
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never settled", j.ID)
		}
		j.mu.Lock()
		req, g := j.req, j.g
		j.mu.Unlock()
		if st, res := j.State(), j.Result(); st != want || res == nil || res.Outcome != outcome {
			t.Fatalf("job %s settled as %s/%+v, want %s/%s", j.ID, st, res, want, outcome)
		}
		if req != nil || g != nil {
			t.Fatalf("settled job %s still references its request (%v) or graph (%v)", j.ID, req != nil, g != nil)
		}
	}

	t.Run("done", func(t *testing.T) {
		s := NewScheduler(Config{Workers: 1, Solver: func(_ context.Context, g *graph.Graph, opts core.Options, _ *engine.Trace) (*core.Result, error) {
			return fakeResult(g, opts, false), nil
		}}, nil)
		defer s.Close()
		settled(t, submit(t, s, ringBody(16, 2, 0, 0, "")), StateDone, OutcomeFeasible)
	})

	t.Run("cancelled", func(t *testing.T) {
		gt := newGate()
		s := NewScheduler(Config{Workers: 1, Solver: gatedSolver(gt)}, nil)
		defer s.Close()
		blocker := submit(t, s, ringBody(16, 2, 0, 0, ""))
		waitStarted(t, gt) // the worker is busy, so the next job queues
		queued := submit(t, s, ringBody(16, 2, 0, 0, `"options":{"seed":5}`))
		queued.Cancel()
		close(gt.release)
		settled(t, queued, StateDone, OutcomeCancelled)
		settled(t, blocker, StateDone, OutcomeFeasible)
	})

	t.Run("panicked", func(t *testing.T) {
		s := NewScheduler(Config{Workers: 1, Solver: alwaysPanicSolver}, nil)
		defer s.Close()
		settled(t, submit(t, s, ringBody(16, 2, 0, 0, "")), StateFailed, OutcomePanic)
	})
}

// TestVerifyResultCatchesEachFigure: the served-result cross-check fails
// when any one served figure departs from the from-scratch recompute.
func TestVerifyResultCatchesEachFigure(t *testing.T) {
	body := `{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":2},{"id":2,"weight":3},{"id":3,"weight":4}],` +
		`"edges":[{"u":0,"v":1,"weight":5},{"u":1,"v":2,"weight":6},{"u":2,"v":3,"weight":7}],` +
		`"hyperedges":[{"pins":[0,2,3],"weight":8}]},"k":3,"bmax":100,"rmax":100}`
	req, g, err := DecodeJobRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	parts := []int{0, 1, 1, 2}
	rep := metrics.Evaluate(g, parts, req.K, metrics.Constraints{Bmax: req.Bmax, Rmax: req.Rmax})
	if rep.HyperCut == 0 {
		t.Fatal("fixture needs a cut hyperedge")
	}
	served := JobResult{Parts: parts, K: req.K, Feasible: rep.Feasible, EdgeCut: rep.EdgeCut,
		MaxLocalBandwidth: rep.MaxLocalBandwidth, MaxResource: rep.MaxResource, HyperedgeCut: rep.HyperCut}
	if err := verifyResult(g, req, &served); err != nil {
		t.Fatalf("faithful result rejected: %v", err)
	}
	for name, tamper := range map[string]func(*JobResult){
		"EdgeCut":           func(jr *JobResult) { jr.EdgeCut++ },
		"MaxLocalBandwidth": func(jr *JobResult) { jr.MaxLocalBandwidth++ },
		"MaxResource":       func(jr *JobResult) { jr.MaxResource++ },
		"Feasible":          func(jr *JobResult) { jr.Feasible = !jr.Feasible },
		"HyperedgeCut":      func(jr *JobResult) { jr.HyperedgeCut++ },
	} {
		jr := served
		tamper(&jr)
		if err := verifyResult(g, req, &jr); err == nil {
			t.Errorf("tampered %s passed verification", name)
		}
	}
}
