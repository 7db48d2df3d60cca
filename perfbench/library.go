package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ppnpart/internal/arena"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pool"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
)

func runBatch(cfg config) (*outcome, error) {
	return runLibrary(cfg, func() ([]libraryInput, error) { return batchInputs(cfg.seed) })
}

func runFanout(cfg config) (*outcome, error) {
	return runLibrary(cfg, func() ([]libraryInput, error) { return fanoutInputs(cfg.seed) })
}

// runLibrary drives a library workload: one caller calling
// core.Partition back to back, cycling through the inputs in order.
func runLibrary(cfg config, generate func() ([]libraryInput, error)) (*outcome, error) {
	var inputs []libraryInput
	setupS, err := timedSetup(func() error {
		in, err := generate()
		if err != nil {
			return err
		}
		inputs = in
		pool.Prewarm()
		arena.Prewarm(runtime.GOMAXPROCS(0))
		_, err = core.Partition(in[0].g, in[0].opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
	}
	out := &outcome{metrics: map[string]float64{"setup_s": setupS}, info: libraryInfo(inputs)}
	if cfg.trace {
		err = tracedLibrary(cfg, inputs, out)
	} else {
		err = plainLibrary(cfg, inputs, out)
	}
	return out, err
}

func libraryInfo(inputs []libraryInput) map[string]any {
	var sizes []map[string]any
	for _, in := range inputs {
		sizes = append(sizes, map[string]any{
			"nodes": in.g.NumNodes(), "edges": in.g.NumEdges(), "nets": in.g.NumHyperEdges(),
			"k": in.opts.K, "solver_seed": in.opts.Seed,
		})
	}
	return map[string]any{"inputs": sizes, "input_digest": libraryDigest(inputs)}
}

// libraryChecker checks each answer in full the first time its input is
// solved and, after that, that the same input yields the same answer.
type libraryChecker struct {
	inputs []libraryInput
	first  []*answer
	costs  []int64
}

func newLibraryChecker(inputs []libraryInput) *libraryChecker {
	return &libraryChecker{inputs: inputs, first: make([]*answer, len(inputs)), costs: make([]int64, len(inputs))}
}

func (lc *libraryChecker) check(i int, a answer) error {
	k := i % len(lc.inputs)
	if f := lc.first[k]; f != nil {
		if err := sameAnswer(*f, a); err != nil {
			return fmt.Errorf("input %d solved differently than before: %w", k, err)
		}
		return nil
	}
	in := lc.inputs[k]
	cost, err := check(in.g, in.opts.K, in.opts.Constraints, a)
	if err != nil {
		return err
	}
	lc.first[k], lc.costs[k] = &a, cost
	return nil
}

// meanCost averages the cost of every input; solveRest has made sure
// each one was solved, so it does not depend on how many operations fit
// in the window.
func (lc *libraryChecker) meanCost() float64 {
	var sum float64
	for _, c := range lc.costs {
		sum += float64(c)
	}
	return ratio(sum, float64(len(lc.costs)))
}

// solveRest solves and checks, untimed, every input the window did not
// reach, so cost always covers the whole set. It returns the number of
// operations it attempted.
func (lc *libraryChecker) solveRest(fails *failures, next int) int {
	n := 0
	for k, f := range lc.first {
		if f != nil {
			continue
		}
		n++
		in := lc.inputs[k]
		res, err := core.Partition(in.g, in.opts)
		if err == nil {
			err = lc.check(k, coreAnswer(res))
		}
		if err != nil {
			fails.add(next+k, err)
		}
	}
	return n
}

// plainLibrary is the untraced run: answers are kept and checked after
// the window so checking does not count against throughput.
func plainLibrary(cfg config, inputs []libraryInput, out *outcome) error {
	fails := &failures{out: cfg.stderr}
	var lat []float64
	var answers []answer
	var errs []error
	before := readCounters()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		in := inputs[i%len(inputs)]
		t := time.Now()
		res, err := core.Partition(in.g, in.opts)
		lat = append(lat, time.Since(t).Seconds())
		errs = append(errs, err)
		if err == nil {
			answers = append(answers, coreAnswer(res))
		} else {
			answers = append(answers, answer{})
		}
	}
	window := time.Since(start).Seconds()
	after := readCounters()

	lc := newLibraryChecker(inputs)
	for i, a := range answers {
		err := errs[i]
		if err == nil {
			err = lc.check(i, a)
		}
		if err != nil {
			fails.add(i, err)
		}
	}
	ops := len(answers)
	rest := lc.solveRest(fails, ops)
	out.attempted, out.failed = ops+rest, fails.n
	m := out.metrics
	windowMetrics(m, before, after, ops)
	m["ops_per_s"] = float64(ops-fails.n) / window
	m["cost"] = lc.meanCost()
	m["op_s_p50"] = percentile(lat, 50)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = rss
	out.info["ops"] = ops
	out.info["solved_after_window"] = rest
	out.info["window_s"] = window
	out.info["steal_share"] = stealShare(before, after, window)
	out.info["op_s_p90"] = percentile(lat, 90)
	out.info["input_costs"] = lc.costs
	return nil
}

// tracedLibrary is the traced run. Each operation calls core.Partition
// untraced, then the same solve through a stage-wrapped engine.Solver,
// and requires both to return the same answer: the traced program is the
// measured program. Probes of the layers below the engine follow.
func tracedLibrary(cfg config, inputs []libraryInput, out *outcome) error {
	fails := &failures{out: cfg.stderr}
	tr := newTracer()
	lc := newLibraryChecker(inputs)
	var plain, traced []float64
	var stats []opStat
	var window counters
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	ops := 0
	for i := 0; time.Now().Before(deadline); i++ {
		ops++
		in := inputs[i%len(inputs)]
		before := readCounters()
		t := time.Now()
		res, err := core.Partition(in.g, in.opts)
		plain = append(plain, time.Since(t).Seconds())
		after := readCounters()
		window.add(before, after)
		if err != nil {
			fails.add(i, err)
			continue
		}
		want := coreAnswer(res)
		t = time.Now()
		got, st, err := tracedPartition(tr, i+1, in)
		traced = append(traced, time.Since(t).Seconds())
		if err == nil {
			err = sameAnswer(want, got)
		}
		if err == nil {
			err = lc.check(i, want)
		}
		if err == nil {
			err = probe(tr, i+1, in, got.Parts, st)
		}
		if err != nil {
			fails.add(i, err)
			continue
		}
		stats = append(stats, st)
	}
	out.attempted, out.failed = ops, fails.n
	spans := tr.snapshot()
	m := libraryLayers(spans, stats)
	m["trace.overhead_s"] = percentile(traced, 50) - percentile(plain, 50)
	windowMetrics(m, counters{}, window, ops)
	for k, v := range m {
		out.metrics[k] = v
	}
	path, err := writeSpans(fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed), spans)
	if err != nil {
		return err
	}
	out.info["ops"] = ops
	out.info["spans"] = len(spans)
	out.info["span_file"] = path
	out.info["op_s_p50_untraced"] = percentile(plain, 50)
	out.info["op_s_p50_traced"] = percentile(traced, 50)
	return nil
}

// opStat is what one traced solve reported besides its spans.
type opStat struct {
	op        int
	seed      int64
	cyclesRun int
	// wasted marks cycles that were pruned or discarded as overshoot.
	wasted         map[int]bool
	batchThreshold int
	fmMoves        int
	batchMoves     int
	batchCands     int
	trials, clones int
	// levels is how many contractions cycle 0's hierarchy made; the
	// coarsening probe must rebuild the same number.
	levels int
}

// stageNames label the engine's default stages in spans.
var stageNames = map[engine.Phase]string{
	engine.PhaseCoarsen:          "engine.coarsen",
	engine.PhaseInitialPartition: "engine.seed",
	engine.PhaseUncoarsen:        "engine.uncoarsen",
	engine.PhaseRefine:           "engine.refine",
	engine.PhaseRetry:            "engine.retry",
}

// timedStage wraps a default engine stage in a span.
type timedStage struct {
	inner      engine.Stage
	t          *tracer
	op, parent int
}

func (s timedStage) Phase() engine.Phase { return s.inner.Phase() }

func (s timedStage) Run(cy *engine.Cycle) error {
	sp := span{Name: stageNames[s.inner.Phase()], Parent: s.parent, Op: s.op, Cycle: cy.Index}
	if s.inner.Phase() == engine.PhaseRefine && cy.CSR != nil {
		sp.Nodes = cy.CSR.NumNodes()
	}
	id := s.t.begin(sp)
	err := s.inner.Run(cy)
	s.t.end(id)
	return err
}

// tracedPartition repeats what core.Partition does for the options the
// library workloads use (no polish, no streaming, no vector resources),
// with every default engine stage, the replication pass and the report
// evaluation wrapped in spans under one "core" span.
func tracedPartition(t *tracer, op int, in libraryInput) (answer, opStat, error) {
	opts := in.opts
	if err := opts.Validate(in.g); err != nil {
		return answer{}, opStat{}, err
	}
	root := t.begin(span{Name: "core", Op: op, Cycle: -1})
	solver := engine.New(engine.Config{K: opts.K, Constraints: opts.Constraints, Seed: opts.Seed})
	for p := range stageNames {
		solver.SetStage(timedStage{inner: solver.Stage(p), t: t, op: op, parent: root})
	}
	etr := &engine.Trace{}
	res := solver.Solve(context.Background(), in.g, etr)
	a := answer{Parts: res.Parts, Feasible: res.Feasible, Goodness: res.Goodness}
	st := opStat{
		op: op, seed: solver.Config().Seed, cyclesRun: res.CyclesRun,
		wasted: map[int]bool{}, batchThreshold: solver.Config().BatchThreshold,
	}
	if opts.Replicate && !res.Stopped {
		id := t.begin(span{Name: "refine.replicate", Parent: root, Op: op, Cycle: -1})
		reps, rst, err := refine.Replicate(in.g, res.Parts, opts.K,
			pstate.Config{K: opts.K, Constraints: opts.Constraints},
			refine.ReplicateOptions{MaxClones: opts.MaxClones})
		t.end(id)
		if err == nil {
			a.Replicas = reps
			st.trials, st.clones = rst.Trials, rst.Clones
			if rst.Clones > 0 {
				a.Goodness = rst.ScoreAfter
			}
		}
	}
	var rep metrics.Report
	t.call("metrics.evaluate", root, op, func() { rep = metrics.Evaluate(in.g, a.Parts, opts.K, opts.Constraints) })
	t.end(root)
	a.EdgeCut, a.MaxLocalBandwidth, a.MaxResource, a.HyperCut = rep.EdgeCut, rep.MaxLocalBandwidth, rep.MaxResource, rep.HyperCut

	for _, c := range etr.Data().Cycles {
		if c.Pruned || c.Discarded {
			st.wasted[c.Cycle] = true
		}
		if c.Cycle == 0 {
			st.levels = len(c.Levels)
		}
	}
	sum := etr.Summary()
	st.fmMoves, st.batchMoves, st.batchCands = sum.FMMoves, sum.BatchMoves, sum.BatchCands
	return a, st, nil
}

// Coarsening settings the engine leaves at coarsen's defaults.
const (
	kmeansClusters = 4
	minShrink      = 0.02
)

// probe times the layers below the engine on one operation's finest
// graph: the CSR snapshot, a partition state over it, and the engine's
// first-cycle coarsening rebuilt level by level from the public matching
// and contraction calls (same RNG stream, same best-of-three rule).
func probe(t *tracer, op int, in libraryInput, parts []int, st opStat) error {
	var csr *graph.CSR
	t.call("graph.to_csr", 0, op, func() { csr = in.g.ToCSR() })
	var err error
	t.call("pstate.new", 0, op, func() {
		_, err = pstate.New(csr, parts, pstate.Config{K: in.opts.K, Constraints: in.opts.Constraints})
	})
	if err != nil {
		return fmt.Errorf("pstate probe: %w", err)
	}
	target := engine.New(engine.Config{K: in.opts.K}).Config().CoarsenTarget
	rng := rand.New(rand.NewSource(st.seed)) // cycle 0's stream
	cur := in.g
	levels := 0
	for cur.NumNodes() > target {
		// match.All order; Random and KMeans share the stream in this
		// order, exactly as the engine's serial RNG chain draws it.
		type cand struct {
			m  match.Matching
			id int
		}
		var cands [3]cand
		cands[0].id = t.call("match.random", 0, op, func() { cands[0].m = match.Random(cur, rng) })
		cands[1].id = t.call("match.heavy_edge", 0, op, func() { cands[1].m = match.HeavyEdge(cur) })
		cands[2].id = t.call("match.kmeans", 0, op, func() { cands[2].m = match.KMeans(cur, kmeansClusters, rng) })
		best, bestW, bestPairs := 0, int64(-1), -1
		for i, c := range cands {
			w, p := c.m.MatchedWeight(cur), c.m.Pairs()
			if w > bestW || (w == bestW && p > bestPairs) {
				best, bestW, bestPairs = i, w, p
			}
		}
		for i, c := range cands {
			tag := "lost"
			if i == best {
				tag = "won"
			}
			t.tag(c.id, tag)
		}
		if bestPairs == 0 {
			break
		}
		var lvl *coarsen.Level
		t.call("coarsen.contract", 0, op, func() { lvl, err = coarsen.Contract(cur, cands[best].m) })
		if err != nil {
			return fmt.Errorf("contract probe: %w", err)
		}
		levels++
		shrink := 1 - float64(lvl.Coarse.NumNodes())/float64(cur.NumNodes())
		cur = lvl.Coarse
		if shrink < minShrink {
			break
		}
	}
	if levels != st.levels {
		return fmt.Errorf("coarsening probe made %d levels, the engine's cycle 0 made %d", levels, st.levels)
	}
	return nil
}

// spanMetric maps span names to the per-layer metric their durations sum
// into.
var spanMetric = map[string]string{
	"engine.coarsen":   "engine.coarsen_s",
	"engine.seed":      "engine.seed_s",
	"engine.uncoarsen": "engine.uncoarsen_s",
	"engine.refine":    "engine.refine_s",
	"engine.retry":     "engine.retry_s",
	"refine.replicate": "refine.replicate_s",
	"metrics.evaluate": "metrics.evaluate_s",
	"graph.to_csr":     "graph.to_csr_s",
	"pstate.new":       "pstate.new_s",
	"match.random":     "match.random_s",
	"match.heavy_edge": "match.heavy_edge_s",
	"match.kmeans":     "match.kmeans_s",
	"coarsen.contract": "coarsen.contract_s",
	"server.decode":    "server.decode_s",
	"server.key":       "server.key_s",
	"server.verify":    "server.verify_s",
	"server.encode":    "server.encode_s",
}

// libraryLayers reduces a traced library run to per-operation layer
// figures. Engine stage time counts only the cycles the reduction counts
// (index < CyclesRun); the stage time of pruned or overshoot cycles is
// reported as a share instead.
func libraryLayers(spans []span, stats []opStat) map[string]float64 {
	m := map[string]float64{}
	byOp := map[int]opStat{}
	var batchMoves, batchCands int
	for _, st := range stats {
		byOp[st.op] = st
		m["engine.cycles"] += float64(st.cyclesRun)
		m["refine.fm_moves"] += float64(st.fmMoves)
		m["refine.replicate_trials"] += float64(st.trials)
		m["refine.clones"] += float64(st.clones)
		batchMoves += st.batchMoves
		batchCands += st.batchCands
	}
	self := selfTimes(spans)
	var stageAll, stageWasted, matchAll, matchLost float64
	for i, s := range spans {
		st, ok := byOp[s.Op]
		if !ok {
			continue // a failed operation
		}
		d := float64(s.dur()) / 1e9
		name := spanMetric[s.Name]
		switch {
		case s.Name == "core":
			m["core.unaccounted_s"] += float64(self[i]) / 1e9
		case s.Cycle >= 0:
			stageAll += d
			if s.Cycle >= st.cyclesRun || st.wasted[s.Cycle] {
				stageWasted += d
			}
			if s.Cycle >= st.cyclesRun {
				continue
			}
			m[name] += d
			if s.Name == "engine.refine" {
				if s.Nodes >= st.batchThreshold {
					m["refine.batch_s"] += d
				} else {
					m["refine.serial_s"] += d
				}
			}
		case name != "":
			m[name] += d
			if s.Tag != "" {
				matchAll += d
				if s.Tag == "lost" {
					matchLost += d
				}
			}
			if s.Name == "coarsen.contract" {
				m["coarsen.levels"]++
			}
		}
	}
	n := float64(len(stats))
	for k := range m {
		m[k] = ratio(m[k], n)
	}
	m["engine.wasted_share"] = ratio(stageWasted, stageAll)
	m["match.lost_share"] = ratio(matchLost, matchAll)
	m["refine.batch_accept_share"] = ratio(float64(batchMoves), float64(batchCands))
	return m
}
