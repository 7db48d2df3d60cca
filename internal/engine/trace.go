package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"ppnpart/internal/stream"
)

// Trace is an optional structured event sink for one Solve call. A nil
// *Trace disables tracing entirely: every hook in the solver is a single
// nil check, so the traced code path costs nothing when tracing is off
// (the bench gate on BenchmarkScaleGP holds the refactor to that claim).
//
// A Trace must not be reused across Solve calls. Cycles record into
// private per-cycle buffers while running and commit them in cycle order
// from the reduction, so the assembled record sequence is independent of
// goroutine scheduling. Pruned and overshoot cycles commit as canonical
// stubs, because how far they ran before being dropped is a matter of
// timing. Wall-clock fields are the one nondeterministic ingredient;
// OmitTiming zeroes them (and skips the clock reads), which is what makes
// two identically-seeded runs produce byte-identical JSON — the golden
// determinism tests pin exactly that.
type Trace struct {
	// OmitTiming leaves every *_ns field zero so the encoded trace is a
	// pure function of (graph, config). Used by golden tests; leave unset
	// to measure per-stage wall time.
	OmitTiming bool

	mu   sync.Mutex
	data TraceData
}

// TraceData is the decoded (wire) form of a trace.
type TraceData struct {
	// Seed, K and Prune echo the search configuration. The batch width
	// (Parallelism) is left out: a trace describes the search, not the
	// schedule it ran on.
	Seed  int64  `json:"seed"`
	K     int    `json:"k"`
	Prune string `json:"prune"`
	// Cycles holds one record per GP cycle that started, in cycle order
	// (pruned and overshoot cycles as stubs; see CycleTrace.stub).
	Cycles []*CycleTrace `json:"cycles"`
	// Outcome summarizes the reduction across cycles.
	Outcome *OutcomeTrace `json:"outcome,omitempty"`
}

// CycleTrace records one coarsen → seed → uncoarsen+refine cycle.
type CycleTrace struct {
	// Cycle is the cycle index (also the per-cycle RNG stream index).
	Cycle int `json:"cycle"`
	// Levels are the coarsening contractions, finest first.
	Levels []LevelTrace `json:"levels,omitempty"`
	// Seeding describes the initial partition of the coarsest graph.
	Seeding *SeedTrace `json:"seeding,omitempty"`
	// Refines are the per-level refinement outcomes, coarsest first.
	Refines []RefineTrace `json:"refines,omitempty"`
	// Pruned is set on a cycle whose result the reduction provably
	// discards because a lower cycle dominates it, whether or not the
	// cycle abandoned itself against the shared incumbent in time.
	Pruned bool `json:"pruned,omitempty"`
	// Cancelled is set when the context expired mid-cycle.
	Cancelled bool `json:"cancelled,omitempty"`
	// Discarded is set on overshoot cycles a serial run would never have
	// executed (the deterministic reduction ignores their results).
	Discarded bool `json:"discarded,omitempty"`
	// Retry is the cyclic re-coarsen decision taken after this cycle.
	Retry *RetryTrace `json:"retry,omitempty"`
	// Feasible and Goodness score the cycle's finest-level assignment.
	Feasible bool    `json:"feasible"`
	Goodness float64 `json:"goodness"`
	// Per-phase wall times (zero under OmitTiming).
	CoarsenNS int64 `json:"coarsen_ns,omitempty"`
	SeedNS    int64 `json:"seed_ns,omitempty"`
	RefineNS  int64 `json:"refine_ns,omitempty"`
	WallNS    int64 `json:"wall_ns,omitempty"`
}

// LevelTrace records one coarsening contraction.
type LevelTrace struct {
	// Level is the contraction index (0 contracts the original graph).
	Level int `json:"level"`
	// Heuristic is the matching that won the best-of-three comparison.
	Heuristic string `json:"heuristic"`
	// FineNodes and CoarseNodes are the node counts across the step;
	// Ratio = CoarseNodes/FineNodes (a maximal matching gives ~0.5).
	FineNodes   int     `json:"fine_nodes"`
	CoarseNodes int     `json:"coarse_nodes"`
	Ratio       float64 `json:"ratio"`
	// Candidates lists every competing heuristic's matching quality at
	// this level — the full best-of-three comparison, not just the winner.
	// Absent under n-level coarsening (heavy-edge only, no competition).
	Candidates []MatchTrace `json:"candidates,omitempty"`
}

// MatchTrace is one heuristic's entry in a level's matching competition.
type MatchTrace struct {
	Heuristic string `json:"heuristic"`
	// MatchedWeight is the edge weight the matching hides; Pairs is the
	// tie-breaking pair count.
	MatchedWeight int64 `json:"matched_weight"`
	Pairs         int   `json:"pairs"`
}

// SeedTrace records the initial partitioning of the coarsest graph.
type SeedTrace struct {
	// Method is "greedy" (even cycles), "random" (odd cycles), "stream"
	// (coarsest graph at or above Config.StreamSeedThreshold), or
	// "greedy-fallback" (the coarsest graph had fewer than K nodes and
	// seeding restarted on the finest graph).
	Method string `json:"method"`
	// Nodes is the size of the graph that was seeded.
	Nodes int `json:"nodes"`
	// Restarts echoes the configured greedy restart count (greedy only).
	Restarts int `json:"restarts,omitempty"`
	// Stream records the streaming seeder's per-iteration cut/imbalance
	// trajectory (stream method only).
	Stream []stream.IterTrace `json:"stream,omitempty"`
}

// RefineTrace records the refinement of one hierarchy level: the three
// competing pipelines' goodness-best candidate.
type RefineTrace struct {
	// Level is the hierarchy level (Depth = coarsest, 0 = finest).
	Level int `json:"level"`
	// Nodes is the graph size at this level.
	Nodes int `json:"nodes"`
	// Mode is "batch" when the data-parallel batch pass refined this
	// level, "batch-degraded" when the batch pass panicked and the level
	// fell back to the serial pipelines, and empty for plain serial
	// refinement.
	Mode string `json:"mode,omitempty"`
	// Pipeline is the index of the winning stage ordering (-1 under
	// batch refinement, which replaces the pipeline race).
	Pipeline int `json:"pipeline"`
	// FMPasses and FMMoves are the winning pipeline's k-way FM totals.
	FMPasses int `json:"fm_passes"`
	FMMoves  int `json:"fm_moves"`
	// Batch records the batch pass's move rounds (batch modes only).
	Batch *BatchTrace `json:"batch,omitempty"`
	// Cut, BandwidthExcess and ResourceExcess describe the winning
	// candidate; Goodness is its feasibility-first score.
	Cut             int64   `json:"cut"`
	BandwidthExcess int64   `json:"bandwidth_excess"`
	ResourceExcess  int64   `json:"resource_excess"`
	Goodness        float64 `json:"goodness"`
	// WallNS is the level's refinement wall time (zero under OmitTiming).
	WallNS int64 `json:"wall_ns,omitempty"`
}

// BatchTrace records one level's batch refinement rounds.
type BatchTrace struct {
	// Rounds is the number of accepted conflict-free move rounds; Moves
	// totals their batch sizes.
	Rounds int `json:"rounds"`
	Moves  int `json:"moves"`
	// RoundSizes and RoundGains are the per-round batch sizes and summed
	// cut gains.
	RoundSizes []int   `json:"round_sizes,omitempty"`
	RoundGains []int64 `json:"round_gains,omitempty"`
	// RoundCands and RoundQuotas are the per-round candidate counts and
	// effective per-part quotas: RoundSizes[i]/RoundCands[i] is the
	// accept rate that drives the adaptive quota divisor.
	RoundCands  []int `json:"round_cands,omitempty"`
	RoundQuotas []int `json:"round_quotas,omitempty"`
	// Degraded is set when the batch pass panicked and the level fell
	// back to the serial pipelines (panic isolation).
	Degraded bool `json:"degraded,omitempty"`
}

// RetryTrace records the cyclic re-coarsen decision after a cycle.
type RetryTrace struct {
	// Feasible echoes whether the cycle met both constraints.
	Feasible bool `json:"feasible"`
	// Continue reports whether the search went back to the coarsening
	// phase for another cycle; Reason is one of "feasible-stop",
	// "minimize", "budget-exhausted", or "retry".
	Continue bool   `json:"continue"`
	Reason   string `json:"reason"`
}

// OutcomeTrace summarizes the deterministic reduction.
type OutcomeTrace struct {
	Feasible  bool    `json:"feasible"`
	Goodness  float64 `json:"goodness"`
	CyclesRun int     `json:"cycles_run"`
	BestCycle int     `json:"best_cycle"`
	Stopped   bool    `json:"stopped,omitempty"`
}

// stub reduces the record of a cycle the reduction ignores (pruned, or
// overshoot when !pruned) to its canonical form: the index, the flag and
// the wall times. How far such a cycle got before it abandoned itself or
// its batch finished depends on timing, so its per-level records, retry
// decision and score are dropped; what remains is a function of the
// reduction alone.
func (ct *CycleTrace) stub(pruned bool) *CycleTrace {
	if ct == nil {
		return nil
	}
	return &CycleTrace{
		Cycle:     ct.Cycle,
		Pruned:    pruned,
		Discarded: !pruned,
		CoarsenNS: ct.CoarsenNS,
		SeedNS:    ct.SeedNS,
		RefineNS:  ct.RefineNS,
		WallNS:    ct.WallNS,
	}
}

// begin stamps the configuration echo fields.
func (tr *Trace) begin(cfg *Config) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.data = TraceData{
		Seed:  cfg.Seed,
		K:     cfg.K,
		Prune: cfg.Prune.String(),
	}
	tr.mu.Unlock()
}

// commit appends one finished cycle record. The solver calls it from the
// reduction (single goroutine, batch order), so records land sorted by
// cycle index without any post-hoc sorting.
func (tr *Trace) commit(ct *CycleTrace) {
	if tr == nil || ct == nil {
		return
	}
	tr.mu.Lock()
	tr.data.Cycles = append(tr.data.Cycles, ct)
	tr.mu.Unlock()
}

// finish records the reduction outcome.
func (tr *Trace) finish(out *Outcome) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.data.Outcome = &OutcomeTrace{
		Feasible:  out.Feasible,
		Goodness:  out.Goodness,
		CyclesRun: out.CyclesRun,
		BestCycle: out.BestCycle,
		Stopped:   out.Stopped,
	}
	tr.mu.Unlock()
}

// Data returns a snapshot of the collected records. The slice is shared
// with the trace; callers must not mutate it while a Solve is running.
func (tr *Trace) Data() TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.data
}

// JSON encodes the trace, indented for human consumption. Encoding is
// deterministic: record order is the committed (cycle) order and
// encoding/json formats numbers canonically.
func (tr *Trace) JSON() ([]byte, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return json.MarshalIndent(&tr.data, "", "  ")
}

// DecodeTrace parses trace JSON produced by Trace.JSON (or any
// field-compatible encoder). Unknown fields are rejected so schema drift
// between writer and reader is caught instead of silently dropped.
func DecodeTrace(b []byte) (*TraceData, error) {
	var d TraceData
	if err := strictUnmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("engine: invalid trace: %w", err)
	}
	return &d, nil
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing non-space content is malformed.
	if dec.More() {
		return fmt.Errorf("trailing data after trace document")
	}
	return nil
}

// Summary condenses a trace into the fixed-size aggregate the daemon
// attaches to job results and feeds its per-stage histograms from.
type TraceSummary struct {
	// Cycles is the number of cycle records (including discarded
	// overshoot); Counted excludes discarded cycles. Retries counts the
	// re-coarsen decisions that continued the search.
	Cycles  int `json:"cycles"`
	Counted int `json:"counted"`
	Retries int `json:"retries"`
	// Pruned and Discarded count abandoned and overshoot cycles.
	Pruned    int `json:"pruned,omitempty"`
	Discarded int `json:"discarded,omitempty"`
	// Levels is the total number of coarsening contractions across
	// cycles; FMPasses/FMMoves total the winning pipelines' k-way FM
	// work.
	Levels   int `json:"levels"`
	FMPasses int `json:"fm_passes"`
	FMMoves  int `json:"fm_moves"`
	// BatchRounds/BatchMoves total the batch refinement rounds across
	// levels; BatchCands totals the candidates those rounds were offered
	// (so BatchMoves/BatchCands is the aggregate adaptive-quota accept
	// rate); BatchDegraded counts levels whose batch pass panicked and
	// fell back to serial refinement.
	BatchRounds   int `json:"batch_rounds,omitempty"`
	BatchMoves    int `json:"batch_moves,omitempty"`
	BatchCands    int `json:"batch_cands,omitempty"`
	BatchDegraded int `json:"batch_degraded,omitempty"`
	// HeuristicWins counts coarsening levels by winning matching.
	HeuristicWins map[string]int `json:"heuristic_wins,omitempty"`
	// CoarsenNS/SeedNS/RefineNS total the per-phase wall times.
	CoarsenNS int64 `json:"coarsen_ns,omitempty"`
	SeedNS    int64 `json:"seed_ns,omitempty"`
	RefineNS  int64 `json:"refine_ns,omitempty"`
	// Feasible/Goodness/BestCycle echo the outcome.
	Feasible  bool    `json:"feasible"`
	Goodness  float64 `json:"goodness"`
	BestCycle int     `json:"best_cycle"`
}

// Summary aggregates the collected records.
func (tr *Trace) Summary() TraceSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var s TraceSummary
	for _, ct := range tr.data.Cycles {
		s.Cycles++
		if ct.Discarded {
			s.Discarded++
		} else {
			s.Counted++
		}
		if ct.Pruned {
			s.Pruned++
		}
		if ct.Retry != nil && ct.Retry.Continue {
			s.Retries++
		}
		s.Levels += len(ct.Levels)
		for _, lt := range ct.Levels {
			if s.HeuristicWins == nil {
				s.HeuristicWins = make(map[string]int)
			}
			s.HeuristicWins[lt.Heuristic]++
		}
		for _, rt := range ct.Refines {
			s.FMPasses += rt.FMPasses
			s.FMMoves += rt.FMMoves
			if rt.Batch != nil {
				s.BatchRounds += rt.Batch.Rounds
				s.BatchMoves += rt.Batch.Moves
				for _, c := range rt.Batch.RoundCands {
					s.BatchCands += c
				}
				if rt.Batch.Degraded {
					s.BatchDegraded++
				}
			}
		}
		s.CoarsenNS += ct.CoarsenNS
		s.SeedNS += ct.SeedNS
		s.RefineNS += ct.RefineNS
	}
	if o := tr.data.Outcome; o != nil {
		s.Feasible = o.Feasible
		s.Goodness = o.Goodness
		s.BestCycle = o.BestCycle
	}
	return s
}
