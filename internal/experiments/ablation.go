package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
	"ppnpart/internal/refine"
)

// newRand builds a deterministic source for the harness.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// AblationRow is one configuration's outcome on the ablation workload.
type AblationRow struct {
	// Config names the varied setting.
	Config string
	// Cut, Feasible, Cycles and Time summarize the run.
	Cut      int64
	Feasible bool
	Cycles   int
	Time     time.Duration
}

// ablationWorkload is a mid-size constrained instance shared by A1–A4:
// a 400-node graph with a binding Rmax and a moderately tight Bmax.
func ablationWorkload() (*graph.Graph, metrics.Constraints, int, error) {
	g, err := gen.RandomConnected(400, 1200,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20}, newRand(77))
	if err != nil {
		return nil, metrics.Constraints{}, 0, err
	}
	k := 4
	c := metrics.Constraints{
		Rmax: g.TotalNodeWeight()*110/(100*int64(k)) + g.MaxNodeWeight(),
		Bmax: 3 * g.TotalEdgeWeight() / (2 * int64(k)),
	}
	return g, c, k, nil
}

func runConfig(g *graph.Graph, c metrics.Constraints, k int, name string, opts core.Options) (AblationRow, error) {
	opts.K = k
	opts.Constraints = c
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	res, err := core.Partition(g, opts)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Config:   name,
		Cut:      res.Report.EdgeCut,
		Feasible: res.Feasible,
		Cycles:   res.Cycles,
		Time:     res.Runtime,
	}, nil
}

// AblationMatching (A1) compares each matching heuristic alone against the
// paper's best-of-three.
func AblationMatching() ([]AblationRow, error) {
	g, c, k, err := ablationWorkload()
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		hs   []match.Heuristic
	}{
		{"random-only", []match.Heuristic{match.HeuristicRandom}},
		{"heavy-edge-only", []match.Heuristic{match.HeuristicHeavyEdge}},
		{"k-means-only", []match.Heuristic{match.HeuristicKMeans}},
		{"best-of-three", nil},
	}
	var out []AblationRow
	for _, cfg := range configs {
		row, err := runConfig(g, c, k, cfg.name, core.Options{MatchHeuristics: cfg.hs, MaxCycles: 4})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationRestarts (A2) varies the greedy initial partitioner's restart
// count (paper default 10).
func AblationRestarts() ([]AblationRow, error) {
	g, c, k, err := ablationWorkload()
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, r := range []int{1, 5, 10, 20} {
		row, err := runConfig(g, c, k, fmt.Sprintf("restarts-%d", r),
			core.Options{Restarts: r, MaxCycles: 4})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationCoarsenTarget (A3) varies the coarsening stop size (paper
// default 100).
func AblationCoarsenTarget() ([]AblationRow, error) {
	g, c, k, err := ablationWorkload()
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, t := range []int{25, 50, 100, 200} {
		row, err := runConfig(g, c, k, fmt.Sprintf("coarsen-%d", t),
			core.Options{CoarsenTarget: t, MaxCycles: 4})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationCycles (A4) varies the cyclic re-coarsening budget on the tight
// paper instance (experiment 3), where the budget is what buys
// feasibility.
func AblationCycles() ([]AblationRow, error) {
	inst, err := gen.PaperInstance(3)
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, cyc := range []int{1, 4, 16, 24} {
		row, err := runConfig(inst.G, inst.Constraints, inst.K,
			fmt.Sprintf("cycles-%d", cyc), core.Options{MaxCycles: cyc, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// polishers are A5's final local-search passes over GP's partition.
// Each mutates parts in place and reports whether the result is feasible.
var polishers = []struct {
	name string
	run  func(g *graph.Graph, parts []int, k int, c metrics.Constraints) bool
}{
	{"polish-tabu", func(g *graph.Graph, parts []int, k int, c metrics.Constraints) bool {
		_, ok := refine.TabuSearch(g, parts, k, c, refine.TabuOptions{})
		return ok
	}},
	{"polish-anneal", func(g *graph.Graph, parts []int, k int, c metrics.Constraints) bool {
		// GP's seed (1) xor a fixed mask keeps the anneal stream apart
		// from the one GP drew its partition from.
		_, ok := refine.Anneal(g, parts, k, c, refine.AnnealOptions{}, newRand(1^0x5DEECE66D))
		return ok
	}},
}

// AblationPolish (A5, extension) compares GP without polishing against
// Tabu Search and simulated-annealing final passes (the local-search
// strategies §II-A surveys) applied to GP's partition of the ablation
// workload. A polished row's time covers the partition plus the polish.
func AblationPolish() ([]AblationRow, error) {
	g, c, k, err := ablationWorkload()
	if err != nil {
		return nil, err
	}
	res, err := core.Partition(g, core.Options{K: k, Constraints: c, MaxCycles: 2, Seed: 1})
	if err != nil {
		return nil, err
	}
	out := []AblationRow{{
		Config:   "polish-none",
		Cut:      res.Report.EdgeCut,
		Feasible: res.Feasible,
		Cycles:   res.Cycles,
		Time:     res.Runtime,
	}}
	for _, p := range polishers {
		parts := append([]int(nil), res.Parts...)
		start := time.Now()
		feasible := p.run(g, parts, k, c)
		out = append(out, AblationRow{
			Config:   p.name,
			Cut:      metrics.EdgeCut(g, parts),
			Feasible: feasible,
			Cycles:   res.Cycles,
			Time:     res.Runtime + time.Since(start),
		})
	}
	return out, nil
}

// AblationCoarsenScheme (A6, extension) compares the paper's
// matching-based coarsening against the n-level one-edge-per-level scheme
// its §III surveys, inside the same GP pipeline.
func AblationCoarsenScheme() ([]AblationRow, error) {
	g, c, k, err := ablationWorkload()
	if err != nil {
		return nil, err
	}
	std, err := runConfig(g, c, k, "matching-levels", core.Options{MaxCycles: 2})
	if err != nil {
		return nil, err
	}
	nlv, err := runConfig(g, c, k, "n-level", core.Options{MaxCycles: 2, NLevelCoarsening: true})
	if err != nil {
		return nil, err
	}
	return []AblationRow{std, nlv}, nil
}

// FormatAblation renders one ablation's rows.
func FormatAblation(w io.Writer, title string, rows []AblationRow) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("%s\n", title)
	p("%-18s %-10s %-9s %-8s %s\n", "config", "cut", "feasible", "cycles", "time")
	for _, r := range rows {
		p("%-18s %-10d %-9v %-8d %s\n", r.Config, r.Cut, r.Feasible, r.Cycles, fmtDuration(r.Time))
	}
	return err
}
