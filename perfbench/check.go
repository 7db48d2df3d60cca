package main

import (
	"fmt"
	"slices"

	"ppnpart/internal/core"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/server"
)

// answer is what one operation returned, from either serving path.
type answer struct {
	Parts    []int
	Replicas []int
	Feasible bool
	Goodness float64
	// EdgeCut, MaxLocalBandwidth, MaxResource and HyperCut are the
	// reported summary the checker recomputes.
	EdgeCut, MaxLocalBandwidth, MaxResource, HyperCut int64
}

func coreAnswer(r *core.Result) answer {
	return answer{
		Parts: r.Parts, Replicas: r.Replicas, Feasible: r.Feasible, Goodness: r.Goodness,
		EdgeCut: r.Report.EdgeCut, MaxLocalBandwidth: r.Report.MaxLocalBandwidth,
		MaxResource: r.Report.MaxResource, HyperCut: r.Report.HyperCut,
	}
}

func jobAnswer(jr *server.JobResult) answer {
	return answer{
		Parts: jr.Parts, Replicas: jr.Replicas, Feasible: jr.Feasible, Goodness: jr.Goodness,
		EdgeCut: jr.EdgeCut, MaxLocalBandwidth: jr.MaxLocalBandwidth,
		MaxResource: jr.MaxResource, HyperCut: jr.HyperedgeCut,
	}
}

// check verifies a on g against a from-scratch internal/metrics recompute
// and returns the partition's communication cost: the replicated edge
// cut plus the replicated hyperedge cut. Every workload instance is
// feasible by construction, so an infeasible answer is an error too.
func check(g *graph.Graph, k int, c metrics.Constraints, a answer) (int64, error) {
	n := g.NumNodes()
	if len(a.Parts) != n {
		return 0, fmt.Errorf("partition has %d entries for %d nodes", len(a.Parts), n)
	}
	for u, p := range a.Parts {
		if p < 0 || p >= k {
			return 0, fmt.Errorf("node %d in part %d, outside [0,%d)", u, p, k)
		}
	}
	if a.Replicas != nil {
		if len(a.Replicas) != n {
			return 0, fmt.Errorf("replica vector has %d entries for %d nodes", len(a.Replicas), n)
		}
		for u, p := range a.Replicas {
			if p < -1 || p >= k {
				return 0, fmt.Errorf("node %d replicated into part %d, outside [-1,%d)", u, p, k)
			}
		}
	}
	rep := metrics.Evaluate(g, a.Parts, k, c)
	switch {
	case a.EdgeCut != rep.EdgeCut:
		return 0, fmt.Errorf("edge_cut %d, recomputed %d", a.EdgeCut, rep.EdgeCut)
	case a.MaxLocalBandwidth != rep.MaxLocalBandwidth:
		return 0, fmt.Errorf("max_local_bandwidth %d, recomputed %d", a.MaxLocalBandwidth, rep.MaxLocalBandwidth)
	case a.MaxResource != rep.MaxResource:
		return 0, fmt.Errorf("max_resource %d, recomputed %d", a.MaxResource, rep.MaxResource)
	case a.HyperCut != rep.HyperCut:
		return 0, fmt.Errorf("hyperedge_cut %d, recomputed %d", a.HyperCut, rep.HyperCut)
	case !a.Feasible || !rep.Feasible:
		return 0, fmt.Errorf("infeasible result (reported %v, recomputed %v) on a feasible instance", a.Feasible, rep.Feasible)
	}
	cost := metrics.ReplicatedEdgeCut(g, a.Parts, a.Replicas) + metrics.ReplicatedHyperCut(g, a.Parts, a.Replicas)
	if a.Goodness != float64(cost) {
		return 0, fmt.Errorf("goodness %v, recomputed cost %d", a.Goodness, cost)
	}
	return cost, nil
}

// sameAnswer reports where two answers for the same input differ.
func sameAnswer(a, b answer) error {
	if !slices.Equal(a.Parts, b.Parts) {
		return fmt.Errorf("partitions differ")
	}
	if !slices.Equal(a.Replicas, b.Replicas) {
		return fmt.Errorf("replica vectors differ")
	}
	if a.Feasible != b.Feasible || a.Goodness != b.Goodness || a.EdgeCut != b.EdgeCut ||
		a.MaxLocalBandwidth != b.MaxLocalBandwidth || a.MaxResource != b.MaxResource || a.HyperCut != b.HyperCut {
		return fmt.Errorf("summaries differ")
	}
	return nil
}
