package engine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/chaos"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/graph"
	"ppnpart/internal/initpart"
	"ppnpart/internal/refine"
	"ppnpart/internal/stream"
)

// coarsenStage builds the multilevel hierarchy over the finest CSR, which
// becomes its level 0. Construction failures degrade to a flat
// (no-hierarchy) run rather than aborting the cycle — hierarchy
// construction only fails on internal invariant breakage.
type coarsenStage struct{}

func (coarsenStage) Phase() Phase { return PhaseCoarsen }

func (coarsenStage) Run(cy *Cycle) error {
	var hier *coarsen.Hierarchy
	var err error
	if cy.Cfg.NLevelCoarsening {
		hier, err = coarsen.BuildNLevelWS(cy.WS, cy.CSR, cy.Cfg.CoarsenTarget)
	} else {
		hier, err = coarsen.BuildWS(cy.WS, cy.CSR, coarsen.Options{
			TargetSize: cy.Cfg.CoarsenTarget,
			Heuristics: cy.Cfg.MatchHeuristics,
			Pool:       cy.Cfg.Pool,
			// Candidate recording is the trace's per-level view of the
			// best-of-three competition; off-trace it costs nothing.
			RecordCandidates: cy.trace != nil,
		}, cy.RNG)
	}
	if err != nil {
		hier = &coarsen.Hierarchy{Original: cy.CSR}
	}
	cy.Hier = hier
	if ct := cy.trace; ct != nil {
		fine := cy.CSR.NumNodes()
		for i, lvl := range hier.Levels {
			coarse := lvl.Coarse.NumNodes()
			lt := LevelTrace{
				Level:       i,
				Heuristic:   lvl.Heuristic.String(),
				FineNodes:   fine,
				CoarseNodes: coarse,
				Ratio:       float64(coarse) / float64(fine),
			}
			for _, c := range lvl.Candidates {
				lt.Candidates = append(lt.Candidates, MatchTrace{
					Heuristic:     c.Heuristic.String(),
					MatchedWeight: c.MatchedWeight,
					Pairs:         c.Pairs,
				})
			}
			ct.Levels = append(ct.Levels, lt)
			fine = coarse
		}
	}
	return nil
}

// initialStage seeds the coarsest graph. Cycle 0 uses the paper's greedy
// scheme; later cycles alternate greedy (fresh random seeds) and purely
// random seeding — §IV-C: "we go back to coarsening phase and then
// partitioning phase (randomly), cyclically". It also positions the cycle
// at the deepest level, whose graph serves both seeding and the first
// refinement round.
type initialStage struct{}

func (initialStage) Phase() Phase { return PhaseInitialPartition }

func (initialStage) Run(cy *Cycle) error {
	cfg := cy.Cfg
	cy.Level = cy.Hier.Depth()
	cy.CSR = cy.Hier.Coarsest()

	method := "greedy"
	var parts []int
	var err error
	var streamIters []stream.IterTrace
	if cfg.StreamSeedThreshold > 0 && cy.CSR.NumNodes() >= cfg.StreamSeedThreshold {
		// Huge coarsest graphs (a raised CoarsenTarget or a barely
		// contractible instance) seed via the streaming partitioner: one
		// penalized-greedy pass plus a short restream loop instead of
		// frontier growth per restart. One RNG draw varies the shuffled
		// stream order per cycle while keeping the run deterministic.
		method = "stream"
		sres, serr := stream.PartitionCSRWS(cy.Ctx, cy.WS, cy.CSR, stream.Options{
			K:             cfg.K,
			Constraints:   cfg.Constraints,
			MaxIterations: cfg.StreamIterations,
			Seed:          cy.RNG.Int63(),
			Order:         stream.OrderShuffle,
			Workers:       1, // cycles already fan out; results are Workers-neutral
			Pool:          cfg.Pool,
		})
		if serr == nil {
			parts, streamIters = sres.Parts, sres.Iters
		} else {
			err = serr
		}
	} else if cy.Index%2 == 0 {
		parts, err = initpart.GreedyGrowWS(cy.WS, cy.CSR, initpart.GreedyOptions{
			K:           cfg.K,
			Rmax:        cfg.Constraints.Rmax,
			Restarts:    cfg.Restarts,
			Constraints: cfg.Constraints,
		}, cy.RNG)
	} else {
		method = "random"
		parts, err = initpart.RandomPartitionWS(cy.WS, cy.CSR, cfg.K, cy.RNG)
	}
	if err != nil {
		// The coarsest graph can, in principle, have fewer nodes than K
		// if the caller picked a tiny CoarsenTarget; fall back to the
		// finest graph directly.
		method = "greedy-fallback"
		cy.Hier = &coarsen.Hierarchy{Original: cy.Hier.Original}
		cy.Level = 0
		cy.CSR = cy.Hier.Original
		parts, _ = initpart.GreedyGrowWS(cy.WS, cy.CSR, initpart.GreedyOptions{
			K:           cfg.K,
			Rmax:        cfg.Constraints.Rmax,
			Restarts:    cfg.Restarts,
			Constraints: cfg.Constraints,
		}, cy.RNG)
	}
	cy.Parts = parts
	if ct := cy.trace; ct != nil {
		st := &SeedTrace{Method: method, Nodes: cy.CSR.NumNodes(), Stream: streamIters}
		if method == "greedy" || method == "greedy-fallback" {
			st.Restarts = cfg.Restarts
		}
		ct.Seeding = st
	}
	return nil
}

// uncoarsenStage projects the assignment one level finer, recycling the
// coarser level's buffer, and moves the cycle onto the finer graph.
type uncoarsenStage struct{}

func (uncoarsenStage) Phase() Phase { return PhaseUncoarsen }

func (uncoarsenStage) Run(cy *Cycle) error {
	lvl := cy.Level
	fine := cy.Hier.At(lvl - 1)
	projected := cy.WS.Ints.Cap(fine.NumNodes())[:fine.NumNodes()]
	if err := cy.Hier.Levels[lvl-1].ProjectUpInto(cy.Parts, projected); err != nil {
		cy.WS.Ints.Put(projected)
		return errStopUncoarsen
	}
	cy.WS.Ints.Put(cy.Parts)
	cy.Parts = projected
	cy.Level = lvl - 1
	cy.CSR = fine
	return nil
}

// refineStage refines the current level. Below the batch threshold (or
// under RefineSerial) bestRefinement compares the stage pipelines on the
// projected partition, running each distinct stage once, and the
// goodness-best outcome wins. At and above the threshold (or under
// RefineBatch) a single data-parallel batch pass plus a serial FM polish
// replaces the pipelines; a panic inside the batch pass is isolated and
// the level degrades to the serial pipelines.
type refineStage struct{}

func (refineStage) Phase() Phase { return PhaseRefine }

// useBatch decides the level's refinement strategy.
func useBatch(cfg *Config, nodes int) bool {
	switch cfg.Refine {
	case RefineBatch:
		return true
	case RefineSerial:
		return false
	default:
		return nodes >= cfg.BatchThreshold
	}
}

func (refineStage) Run(cy *Cycle) error {
	t := cy.now()
	var win refineWin
	var bt *BatchTrace
	mode := ""
	if useBatch(cy.Cfg, cy.CSR.NumNodes()) {
		var ok bool
		win, bt, ok = batchRefinement(cy)
		if ok {
			mode = "batch"
		} else {
			// The batch pass panicked before touching cy.Parts (it
			// mutates only its own incremental state until it returns);
			// fall back to the serial pipelines.
			mode = "batch-degraded"
			bt = &BatchTrace{Degraded: true}
			win = bestRefinement(cy.CSR, cy.Parts, cy.Cfg, cy.WS, cy.abandon, cy.trace != nil)
		}
	} else {
		win = bestRefinement(cy.CSR, cy.Parts, cy.Cfg, cy.WS, cy.abandon, cy.trace != nil)
	}
	if ct := cy.trace; ct != nil {
		ct.Refines = append(ct.Refines, RefineTrace{
			Level:           cy.Level,
			Nodes:           cy.CSR.NumNodes(),
			Mode:            mode,
			Pipeline:        win.pipeline,
			FMPasses:        win.fmPasses,
			FMMoves:         win.fmMoves,
			Batch:           bt,
			Cut:             win.extra.cut,
			BandwidthExcess: win.extra.bwExcess,
			ResourceExcess:  win.extra.resExcess,
			Goodness:        win.score,
			WallNS:          cy.since(t),
		})
		ct.RefineNS += cy.since(t)
	}
	return nil
}

// batchApplyPoint is the chaos failpoint at the batch-apply boundary: it
// fires right before a selected batch of moves is applied, the spot where
// a real data race or gain-table corruption would land. An injected panic
// (or error, escalated to a panic) is recovered here and the level
// degrades to the serial pipelines.
const batchApplyPoint = "engine.batch-apply"

// batchRefinement runs the batch pass followed by one serial
// polish-and-repair pipeline on the level's assignment. ok is false when
// the batch pass panicked; cy.Parts is then still the projected
// assignment the caller handed in, so the serial fallback starts clean.
func batchRefinement(cy *Cycle) (win refineWin, bt *BatchTrace, ok bool) {
	cfg := cy.Cfg
	// The batch path replaces the pipelines and, like them, draws all its
	// scratch from the cycle's child workspace 0.
	ws := cy.WS.Child(0)
	tracing := cy.trace != nil
	defer func() {
		if r := recover(); r != nil {
			win, bt, ok = refineWin{}, nil, false
		}
	}()
	opts := refine.BatchOptions{
		K:           cfg.K,
		Constraints: cfg.Constraints,
		Pool:        cfg.Pool,
		Record:      tracing,
	}
	if chaos.Enabled() {
		opts.PreApply = func(round, batch int) {
			if err := chaos.Inject(batchApplyPoint); err != nil {
				// Error-kind injections at a mid-apply boundary cannot be
				// "returned" — the pass has no error path by design — so
				// they escalate to the same isolation as a panic.
				panic(err)
			}
		}
	}
	st := refine.BatchKWayWS(ws, cy.CSR, cy.Parts, opts)
	if tracing {
		bt = &BatchTrace{
			Rounds:      st.Rounds,
			Moves:       st.Moves,
			RoundSizes:  st.RoundSizes,
			RoundGains:  st.RoundGains,
			RoundCands:  st.RoundCands,
			RoundQuotas: st.RoundQuotas,
		}
	}
	// Serial FM polish plus the constraint-repair stages, one pipeline.
	// The batch rounds already did the bulk cut work, so the FM stage gets
	// a tight two-pass budget — it only mops up the local moves batch
	// independence forbade — while the repair stages keep their full
	// pass budget.
	polishCfg := *cfg
	polishCfg.RefinePasses = 2
	win = refineWin{pipeline: -1}
	for si, s := range pipelines[0] {
		if si > 0 && cy.abandon() {
			break
		}
		scfg := cfg
		if si == 0 {
			scfg = &polishCfg
		}
		_, fm := stageFuncs[s](cy.CSR, cy.Parts, scfg, ws)
		if tracing {
			win.fmPasses += fm.Passes
			win.fmMoves += fm.Moves
		}
	}
	var extra *evalExtra
	if tracing {
		extra = &win.extra
	}
	win.score, win.feasible = cfg.evaluateWS(ws, cy.CSR, cy.Parts, extra)
	return win, bt, true
}

// retryStage implements the paper's cyclic re-coarsen policy: stop at the
// first feasible cycle unless MinimizeAfterFeasible, and stop when the
// iteration budget is exhausted. The solver invokes it per completed
// cycle in index order; StopSearch marks where a serial run would have
// stopped (later batch results are overshoot and get discarded).
type retryStage struct{}

func (retryStage) Phase() Phase { return PhaseRetry }

func (retryStage) Run(cy *Cycle) error {
	reason := "retry"
	cont := true
	switch {
	case cy.Feasible && !cy.Cfg.MinimizeAfterFeasible:
		reason, cont = "feasible-stop", false
	case cy.Index >= cy.Cfg.MaxCycles-1:
		reason, cont = "budget-exhausted", false
	case cy.Feasible:
		reason = "minimize"
	}
	cy.StopSearch = !cont
	if ct := cy.trace; ct != nil {
		ct.Retry = &RetryTrace{Feasible: cy.Feasible, Continue: cont, Reason: reason}
	}
	return nil
}

// stageFunc is one local-search stage: it refines parts in place, reading
// adjacency through the level's CSR (shared read-only by every stage at
// that level) and drawing scratch from ws. It returns the number of moves
// it applied and, for the k-way FM stage, the FM work it did.
//
// Every stage is RNG-free, so its result is a function of (CSR, parts,
// cfg) alone, and a stage that reports zero moves has left parts
// untouched:
//   - stageCut: KWayFMWS writes parts[u] only for a counted move, and it
//     takes strictly improving moves only, so moves > 0 also means the
//     assignment changed (its cut fell).
//   - stageResources and stageVector: RebalanceResourcesWS and
//     RebalanceVectorWS write parts[u] only for a counted move.
//   - stageBandwidth: RepairBandwidthWS copies back the state it built
//     from parts, which moved only through counted moves.
//
// A repair stage's moves can cancel out, so moves > 0 does not prove a
// change; bestRefinement then treats an unchanged state as a new history,
// which costs deduplication, never exactness.
type stageFunc func(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace) (moves int, fm refine.Stats)

func stageCut(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace) (int, refine.Stats) {
	st := refine.KWayFMWS(ws, csr, parts, cfg.K, cfg.Constraints, cfg.RefinePasses)
	return st.Moves, st
}

func stageBandwidth(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace) (int, refine.Stats) {
	st := refine.RepairBandwidthWS(ws, csr, parts, cfg.K, cfg.Constraints, cfg.RefinePasses)
	return st.Moves, refine.Stats{}
}

func stageResources(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace) (int, refine.Stats) {
	moves, _ := refine.RebalanceResourcesWS(ws, csr, parts, cfg.K, cfg.Constraints, cfg.RefinePasses)
	return moves, refine.Stats{}
}

// stageVector repairs multi-resource overflow; it only applies at the
// finest level, where the assignment indexes the original nodes.
func stageVector(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace) (int, refine.Stats) {
	if !cfg.vectorActive() || len(parts) != len(cfg.VectorResources) {
		return 0, refine.Stats{}
	}
	moves, _ := refine.RebalanceVectorWS(ws, csr, cfg.VectorResources, parts, cfg.K,
		cfg.VectorConstraints, cfg.RefinePasses)
	return moves, refine.Stats{}
}

// Stage ids index stageFuncs; the refinement memo is keyed on them.
const (
	stCut = iota
	stResources
	stBandwidth
	stVector
	numStages
)

var stageFuncs = [numStages]stageFunc{stageCut, stageResources, stageBandwidth, stageVector}

// pipelines are the candidate stage orderings compared at each level;
// each runs every stage once.
var pipelines = [...][numStages]int{
	{stCut, stResources, stBandwidth, stVector},
	{stResources, stVector, stBandwidth, stCut},
	{stBandwidth, stCut, stResources, stVector},
}

// maxHistories bounds the distinct effective histories of one level: the
// empty history plus at most one new history per pipeline step.
const maxHistories = 1 + len(pipelines)*numStages

// refineWin is the winning candidate of one bestRefinement round.
type refineWin struct {
	pipeline int
	score    float64
	feasible bool
	fmPasses int
	fmMoves  int
	extra    evalExtra
}

// bestRefinement finds the goodness-best outcome of the stage pipelines
// on the projected partition, writes it back into parts, and returns the
// winning candidate's description. It is exactly the race that runs every
// pipeline on its own copy of parts and keeps the best, but it runs each
// distinct stage once.
//
// Every stage is a deterministic function of (CSR, parts, cfg), and one
// that reports zero moves is the identity (see stageFunc). So a state is
// named by its effective history: the ordered stages that changed it,
// with the projected input as the empty history. The pipelines are walked
// in order through a memo of (history, stage) → (history, FM work): a
// miss runs the stage once on a copy of its history's state, a hit reuses
// the recorded result. Each distinct final history is scored once, and
// the reduction scans pipelines in order with strict-improvement
// selection (ties keep the earlier pipeline), so the winner, its parts,
// score and FM totals are those of the race. Usually only FM moves
// anything and all three pipelines end in the one state [cut].
//
// The state copies and all stage scratch come from ws.Child(0) and go
// back before return; the memo itself lives in fixed-size arrays.
// abandon, when non-nil, is polled before every stage run but the first:
// once it fires no further stage runs, each pipeline ends at the history
// it had reached, and the caller is about to discard the whole cycle.
// tracing adds cut/excess capture and FM totals to the winner.
func bestRefinement(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace, abandon func() bool, tracing bool) refineWin {
	type step struct {
		done     bool
		next     int // history the stage leads to
		fmPasses int
		fmMoves  int
	}
	type history struct {
		parts    []int
		scored   bool
		score    float64
		feasible bool
		extra    evalExtra
	}
	var (
		memo    [maxHistories][numStages]step
		hist    [maxHistories]history
		final   [len(pipelines)]int // each pipeline's last history
		reached [len(pipelines)]int // stages each pipeline got through
	)
	pws := ws.Child(0)
	hist[0].parts = parts
	nHist, ran, stopped := 1, 0, false
	var work []int
	for i, pl := range pipelines {
		h := 0
		for _, s := range pl {
			e := &memo[h][s]
			if !e.done {
				if stopped || (ran > 0 && abandon != nil && abandon()) {
					stopped = true
					break
				}
				if work == nil {
					work = pws.Ints.Cap(len(parts))[:len(parts)]
				}
				copy(work, hist[h].parts)
				moves, fm := stageFuncs[s](csr, work, cfg, pws)
				ran++
				*e = step{done: true, next: h, fmPasses: fm.Passes, fmMoves: fm.Moves}
				if moves > 0 {
					e.next = nHist
					hist[nHist].parts = work
					nHist++
					work = nil
				}
			}
			h = e.next
			reached[i]++
		}
		final[i] = h
	}
	pws.Ints.Put(work)

	best := 0
	for i, h := range final {
		hr := &hist[h]
		if !hr.scored {
			var extra *evalExtra
			if tracing {
				extra = &hr.extra
			}
			hr.score, hr.feasible = cfg.evaluateWS(pws, csr, hr.parts, extra)
			hr.scored = true
		}
		if hr.score < hist[final[best]].score {
			best = i
		}
	}
	hb := &hist[final[best]]
	win := refineWin{pipeline: best, score: hb.score, feasible: hb.feasible, extra: hb.extra}
	if tracing {
		h := 0
		for _, s := range pipelines[best][:reached[best]] {
			e := memo[h][s]
			win.fmPasses += e.fmPasses
			win.fmMoves += e.fmMoves
			h = e.next
		}
	}
	if final[best] != 0 {
		copy(parts, hb.parts)
	}
	for h := 1; h < nHist; h++ {
		pws.Ints.Put(hist[h].parts)
	}
	return win
}
