package core

import (
	"context"
	"fmt"
	"time"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/stream"
)

// partitionStream runs the AlgoStream fast path: a single streaming pass
// plus restreaming refinement, no multilevel hierarchy. Options already
// validated; stream defaulting applies (StreamIterations 0 → 8,
// Parallelism 0 → GOMAXPROCS). The vertex stream is
// the natural id order — deterministic for a fixed Seed and input graph.
func partitionStream(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	start := time.Now()
	sres, err := stream.PartitionCtx(ctx, g, stream.Options{
		K:             opts.K,
		Constraints:   opts.Constraints,
		MaxIterations: opts.StreamIterations,
		Workers:       opts.Parallelism,
		Seed:          opts.Seed,
		Order:         stream.OrderNatural,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Parts:       sres.Parts,
		K:           opts.K,
		Feasible:    sres.Feasible,
		Cycles:      len(sres.Iters),
		Goodness:    sres.Goodness,
		Runtime:     time.Since(start),
		Report:      metrics.Evaluate(g, sres.Parts, opts.K, opts.Constraints),
		Stopped:     sres.Stopped,
		StreamIters: sres.Iters,
	}
	switch {
	case res.Stopped && !res.Feasible:
		res.Message = fmt.Sprintf(
			"stream stopped early (%v) after %d passes: returning best-effort infeasible partition (Bmax=%d, Rmax=%d)",
			ctx.Err(), len(sres.Iters), opts.Constraints.Bmax, opts.Constraints.Rmax)
	case res.Stopped:
		res.Message = fmt.Sprintf("stream stopped early (%v) after %d passes: returning best feasible partition found", ctx.Err(), len(sres.Iters))
	case !res.Feasible:
		res.Message = fmt.Sprintf(
			"streaming found no feasible %d-way partition in %d passes: constraints (Bmax=%d, Rmax=%d) may need the multilevel search (AlgoGP)",
			opts.K, len(sres.Iters), opts.Constraints.Bmax, opts.Constraints.Rmax)
	}
	return res, nil
}
