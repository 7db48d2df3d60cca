package engine

import (
	"context"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/initpart"
	"ppnpart/internal/metrics"
	"ppnpart/internal/refine"
)

// Tests for bestRefinement's memo over effective stage histories: it must
// reproduce the concurrent race it replaced bit for bit, and it must run
// each distinct (history, stage) once.

// referenceRace is the race bestRefinement replaced: every pipeline runs
// concurrently on its own copy of the projected partition, each candidate
// is scored, and the goodness-best (ties to the earlier pipeline) is
// written back into parts. It is the differential reference for the memo.
func referenceRace(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace, abandon func() bool, tracing bool) refineWin {
	type scored struct {
		parts    []int
		score    float64
		feasible bool
		fm       refine.Stats
		extra    evalExtra
	}
	cands := make([]scored, len(pipelines))
	children := make([]*arena.Workspace, len(pipelines))
	for i := range pipelines {
		children[i] = ws.Child(i)
	}
	cfg.Pool.Run(len(pipelines), func(i int) {
		pl, pws := pipelines[i], children[i]
		cand := append(pws.Ints.Cap(len(parts)), parts...)
		for si, s := range pl {
			if si > 0 && abandon != nil && abandon() {
				break
			}
			_, fm := stageFuncs[s](csr, cand, cfg, pws)
			if tracing {
				cands[i].fm.Passes += fm.Passes
				cands[i].fm.Moves += fm.Moves
			}
		}
		var extra *evalExtra
		if tracing {
			extra = &cands[i].extra
		}
		score, feasible := cfg.evaluateWS(pws, csr, cand, extra)
		cands[i].parts = cand
		cands[i].score = score
		cands[i].feasible = feasible
	})
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].score < cands[best].score {
			best = i
		}
	}
	copy(parts, cands[best].parts)
	win := refineWin{
		pipeline: best,
		score:    cands[best].score,
		feasible: cands[best].feasible,
		fmPasses: cands[best].fm.Passes,
		fmMoves:  cands[best].fm.Moves,
		extra:    cands[best].extra,
	}
	for i := range cands {
		ws.Child(i).Ints.Put(cands[i].parts)
	}
	return win
}

// raceCase is one differential instance: a random graph and the
// constraints the refinement runs under.
type raceCase struct {
	name         string
	n, m, k      int
	seed         int64
	rmaxPct      int64 // Rmax as a percentage of an even share (0: off)
	bmaxDiv      int64 // Bmax = total edge weight / bmaxDiv (0: off)
	vectorKinds  int   // resource kinds at the finest level (0: off)
	vectorPct    int64 // per-kind cap as a percentage of an even share
	randomSeeded bool  // seed the coarsest level at random, not greedily
}

// raceSetup builds the case's graph and config.
func raceSetup(tb testing.TB, rc raceCase) (*graph.Graph, Config) {
	tb.Helper()
	rng := rand.New(rand.NewSource(rc.seed))
	g, err := gen.RandomConnected(rc.n, rc.m,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	k := int64(rc.k)
	cfg := Config{K: rc.k}
	if rc.rmaxPct > 0 {
		cfg.Constraints.Rmax = g.TotalNodeWeight()*rc.rmaxPct/(100*k) + g.MaxNodeWeight()
	}
	if rc.bmaxDiv > 0 {
		cfg.Constraints.Bmax = g.TotalEdgeWeight() / rc.bmaxDiv
	}
	if rc.vectorKinds > 0 {
		vecs := make([][]int64, rc.n)
		totals := make([]int64, rc.vectorKinds)
		for u := range vecs {
			vecs[u] = make([]int64, rc.vectorKinds)
			for d := range vecs[u] {
				vecs[u][d] = int64(1 + rng.Intn(50))
				totals[d] += vecs[u][d]
			}
		}
		cfg.VectorResources = vecs
		cfg.VectorConstraints.Rmax = make([]int64, rc.vectorKinds)
		for d, tot := range totals {
			cfg.VectorConstraints.Rmax[d] = tot*rc.vectorPct/(100*k) + 50
		}
	}
	return g, cfg.WithDefaults()
}

// walkLevels seeds the coarsest level of a hierarchy over g and calls
// visit at every level, coarsest to finest, with the projected parts;
// visit refines them in place before they are projected one level finer.
func walkLevels(tb testing.TB, g *graph.Graph, cfg *Config, ws *arena.Workspace, randomSeeded bool,
	visit func(level int, csr *graph.CSR, parts []int)) {
	tb.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	hier, err := coarsen.BuildWS(ws, g.ToCSR(), coarsen.Options{TargetSize: cfg.CoarsenTarget}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	level := hier.Depth()
	var parts []int
	if randomSeeded {
		parts, err = initpart.RandomPartitionWS(ws, hier.Coarsest(), cfg.K, rng)
	} else {
		parts, err = initpart.GreedyGrowWS(ws, hier.Coarsest(), initpart.GreedyOptions{
			K: cfg.K, Rmax: cfg.Constraints.Rmax, Restarts: cfg.Restarts, Constraints: cfg.Constraints,
		}, rng)
	}
	if err != nil {
		tb.Fatal(err)
	}
	for {
		visit(level, hier.At(level), parts)
		if level == 0 {
			return
		}
		fine := make([]int, hier.At(level-1).NumNodes())
		if err := hier.Levels[level-1].ProjectUpInto(parts, fine); err != nil {
			tb.Fatal(err)
		}
		parts, level = fine, level-1
	}
}

// diffLevels runs the memo and the reference race on the same projected
// parts at every level of rc's hierarchy and fails on any difference. It
// returns how many levels a pipeline other than 0 won.
func diffLevels(t *testing.T, g *graph.Graph, cfg Config, randomSeeded bool) (nonZeroWins int) {
	t.Helper()
	ws := &arena.Workspace{}
	walkLevels(t, g, &cfg, ws, randomSeeded, func(level int, csr *graph.CSR, parts []int) {
		for _, tracing := range []bool{true, false} {
			ref := append([]int(nil), parts...)
			got := append([]int(nil), parts...)
			want := referenceRace(csr, ref, &cfg, ws, nil, tracing)
			win := bestRefinement(csr, got, &cfg, ws, nil, tracing)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("level %d tracing=%v: memo parts differ from the race's", level, tracing)
			}
			if win != want {
				t.Fatalf("level %d tracing=%v: memo %+v, race %+v", level, tracing, win, want)
			}
			if tracing {
				copy(parts, got)
				if win.pipeline != 0 {
					nonZeroWins++
				}
			}
		}
		if level == 0 {
			checkFromScratch(t, g, &cfg, parts)
		}
	})
	return nonZeroWins
}

// checkFromScratch recomputes the refined finest-level partition's cut,
// constraints and goodness with metrics and compares them with the
// engine's evaluation of the same parts.
func checkFromScratch(t *testing.T, g *graph.Graph, cfg *Config, parts []int) {
	t.Helper()
	var extra evalExtra
	score, feasible := cfg.evaluateWS(&arena.Workspace{}, g.ToCSR(), parts, &extra)
	rep := metrics.Evaluate(g, parts, cfg.K, cfg.Constraints)
	if cfg.vectorActive() {
		rep.Feasible = rep.Feasible && metrics.VectorFeasible(cfg.VectorResources, parts, cfg.K, cfg.VectorConstraints)
	} else if want := metrics.Goodness(g, parts, cfg.K, cfg.Constraints); score != want {
		t.Fatalf("goodness %v, metrics.Goodness %v", score, want)
	}
	if extra.cut != rep.EdgeCut || feasible != rep.Feasible {
		t.Fatalf("cut %d feasible %v, metrics.Evaluate cut %d feasible %v",
			extra.cut, feasible, rep.EdgeCut, rep.Feasible)
	}
}

// raceCases are the fixed differential instances. The tight ones make the
// pipelines diverge: a random seed overfills parts under a tight Rmax, a
// tight Bmax makes the bandwidth repair move, and vector caps make the
// finest level's vector stage move.
var raceCases = []raceCase{
	{name: "loose", n: 600, m: 1800, k: 4, seed: 1, rmaxPct: 115, bmaxDiv: 2},
	{name: "unconstrained", n: 500, m: 1500, k: 8, seed: 2},
	{name: "tight-rmax", n: 2000, m: 6000, k: 8, seed: 3, rmaxPct: 100, randomSeeded: true},
	{name: "tight-bmax", n: 2000, m: 8000, k: 8, seed: 4, bmaxDiv: 60, randomSeeded: true},
	{name: "tight-both", n: 2000, m: 6000, k: 6, seed: 5, rmaxPct: 102, bmaxDiv: 30, randomSeeded: true},
	{name: "vector", n: 1000, m: 3000, k: 4, seed: 6, rmaxPct: 130, vectorKinds: 2, vectorPct: 102},
	{name: "vector-tight", n: 1500, m: 4500, k: 8, seed: 7, rmaxPct: 105, bmaxDiv: 25,
		vectorKinds: 3, vectorPct: 101, randomSeeded: true},
}

// wrapStages replaces every stage with wrap(s, stage) until the test ends.
func wrapStages(t *testing.T, wrap func(s int, inner stageFunc) stageFunc) {
	saved := stageFuncs
	t.Cleanup(func() { stageFuncs = saved })
	for s := range stageFuncs {
		stageFuncs[s] = wrap(s, saved[s])
	}
}

func TestRefineMemoMatchesRace(t *testing.T) {
	// The reference race runs stages on pool goroutines.
	var mu sync.Mutex
	var moved [numStages]int
	wrapStages(t, func(s int, inner stageFunc) stageFunc {
		return func(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace) (int, refine.Stats) {
			moves, fm := inner(csr, parts, cfg, ws)
			if moves > 0 {
				mu.Lock()
				moved[s]++
				mu.Unlock()
			}
			return moves, fm
		}
	})
	nonZero := 0
	for _, rc := range raceCases {
		t.Run(rc.name, func(t *testing.T) {
			g, cfg := raceSetup(t, rc)
			nonZero += diffLevels(t, g, cfg, rc.randomSeeded)
		})
	}
	// Guard against a vacuous pass: the table must contain divergent races
	// and exercise every stage's "changed" path.
	if nonZero == 0 {
		t.Error("pipeline 0 won every level of every case")
	}
	for s, n := range moved {
		if n == 0 {
			t.Errorf("stage %d never moved a node", s)
		}
	}
}

// FuzzRefineRaceDifferential runs the memo and the reference race on the
// levels of random instances under random constraint tightness.
func FuzzRefineRaceDifferential(f *testing.F) {
	for _, rc := range raceCases {
		var vec uint8
		if rc.vectorKinds > 0 {
			vec = uint8(rc.vectorPct - 100)
		}
		f.Add(rc.seed, uint16(rc.n), uint8(rc.k), uint8(rc.rmaxPct), uint8(rc.bmaxDiv), vec, rc.randomSeeded)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k, rmaxPct, bmaxDiv, vecSlack uint8, randomSeeded bool) {
		rc := raceCase{
			n:            40 + int(n)%400,
			k:            2 + int(k)%8,
			seed:         seed,
			randomSeeded: randomSeeded,
		}
		rc.m = 3 * rc.n
		if rmaxPct > 0 {
			rc.rmaxPct = 100 + int64(rmaxPct)%60
		}
		if bmaxDiv > 0 {
			rc.bmaxDiv = 1 + int64(bmaxDiv)%50
		}
		if vecSlack > 0 {
			rc.vectorKinds = 1 + int(vecSlack)%3
			rc.vectorPct = 100 + int64(vecSlack)%20
		}
		g, cfg := raceSetup(t, rc)
		diffLevels(t, g, cfg, rc.randomSeeded)
	})
}

// TestRefineMemoRunsCutOncePerLevel pins the deduplication: with no
// resource, bandwidth or vector bound every repair stage is a no-op, so
// the three pipelines share one FM run per level. Every stage call is
// also keyed on (level size, input parts, stage) and must be unique, so
// no (history, stage) pair runs twice.
func TestRefineMemoRunsCutOncePerLevel(t *testing.T) {
	type call struct {
		n     int
		input uint64
		stage int
	}
	seen := map[call]bool{}
	cutCalls := 0
	dup := false
	wrapStages(t, func(s int, inner stageFunc) stageFunc {
		return func(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace) (int, refine.Stats) {
			h := fnv.New64a()
			for _, p := range parts {
				h.Write([]byte{byte(p), byte(p >> 8)})
			}
			c := call{len(parts), h.Sum64(), s}
			dup = dup || seen[c]
			seen[c] = true
			if s == stCut {
				cutCalls++
			}
			return inner(csr, parts, cfg, ws)
		}
	})

	g := testGraph(t, 3000, 9000, 11)
	s := New(Config{K: 8, Seed: 5, MaxCycles: 1, Refine: RefineSerial})
	tr := &Trace{OmitTiming: true}
	out := s.Solve(context.Background(), g, tr)
	refines := tr.Data().Cycles[0].Refines
	if len(refines) < 3 {
		t.Fatalf("only %d refined levels; the test wants a real hierarchy", len(refines))
	}
	if cutCalls != len(refines) {
		t.Fatalf("stageCut ran %d times over %d levels, want once per level", cutCalls, len(refines))
	}
	if dup {
		t.Fatal("a stage ran twice on the same input state within a level")
	}

	// The finest level's recorded evaluation must agree with a
	// from-scratch recompute of the returned parts.
	fin := refines[len(refines)-1]
	rep := metrics.Evaluate(g, out.Parts, 8, metrics.Constraints{})
	if fin.Level != 0 || fin.Cut != rep.EdgeCut || fin.Goodness != float64(rep.EdgeCut) ||
		out.Goodness != fin.Goodness || !rep.Feasible {
		t.Fatalf("finest refine %+v, outcome goodness %v, metrics.Evaluate cut %d feasible %v",
			fin, out.Goodness, rep.EdgeCut, rep.Feasible)
	}
}

// BenchmarkBestRefinement times one serial level the size of a ppnd-mix
// request (20k nodes, 60k edges, K=8, the workload's Rmax and Bmax): the
// finest level's projected partition after the coarser levels were
// refined as a solve refines them.
func BenchmarkBestRefinement(b *testing.B) {
	const n, m, k = 20000, 60000, 8
	g, err := gen.RandomConnected(n, m,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20}, rand.New(rand.NewSource(100)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{K: k, Constraints: metrics.Constraints{
		Rmax: g.TotalNodeWeight()*115/(100*k) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / k,
	}}.WithDefaults()
	ws := &arena.Workspace{}
	var csr *graph.CSR
	var projected []int
	walkLevels(b, g, &cfg, ws, false, func(level int, lc *graph.CSR, parts []int) {
		if level == 0 {
			csr, projected = lc, append([]int(nil), parts...)
			return
		}
		bestRefinement(lc, parts, &cfg, ws, nil, false)
	})
	parts := make([]int, len(projected))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, projected)
		bestRefinement(csr, parts, &cfg, ws, nil, false)
	}
}
