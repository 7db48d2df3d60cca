package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ppnpart/internal/arena"
	"ppnpart/internal/engine"
	"ppnpart/internal/pool"
)

// Metrics is the daemon's instrumentation: per-outcome job counters,
// cache hit/miss counters, coalescing counters, a solve-latency
// histogram, and — fed from the staged engine's trace summaries —
// per-stage wall-time histograms plus an FM pass-count histogram, all
// rendered in the Prometheus text exposition format by WriteTo. Queue
// depth and in-flight counts are sampled live from the scheduler at
// scrape time rather than double-booked here.
type Metrics struct {
	mu          sync.Mutex
	outcomes    map[string]int64 // jobs_total{outcome=...}
	cacheHit    int64
	cacheMiss   int64
	coalesced   int64
	rejected    map[string]int64 // rejections{reason=bad_request|queue_full|draining|...}
	shed        map[string]int64 // load-shed submissions by priority class
	recovered   int64            // jobs replayed from the journal on startup
	panics      int64            // solver panics contained by a worker
	degraded    int64            // degraded-configuration retries after a panic
	journalErrs int64            // journal append/fsync failures
	latency     histogram
	// Per-stage solve wall time, keyed by the engine's stage names; only
	// the stages the trace times (coarsen, seed, refine) appear.
	stages map[string]*histogram
	// FM refinement passes per solve.
	fmPasses histogram
	// Batch refinement rounds per solve (zero-round solves — serial
	// refinement — are not observed, so the histogram tracks batch-mode
	// solves only).
	batchRounds histogram
	// Accepted batch moves and offered batch candidates across solves;
	// batchMoves/batchCands is the aggregate accept rate driving the
	// pass's adaptive per-part quota.
	batchMoves int64
	batchCands int64
	// Levels whose batch pass panicked and degraded to serial refinement.
	batchDegraded int64
	// Clones committed by the logic-replication pass across solves.
	replicatedNodes int64
	// Summed hyperedge connectivity-1 cost of delivered results.
	hyperedgeCut int64
}

// latencyBuckets are the solve-latency histogram bounds in seconds
// (1ms .. 100s, decade steps with a 3x midpoint).
var latencyBuckets = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

// stageBuckets bound the per-stage wall-time histograms; stages are much
// shorter than whole solves, so the range starts at 10µs.
var stageBuckets = []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1, 10}

// passBuckets bound the FM pass-count histogram (power-of-two steps).
var passBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// stageNames fixes the exported stage label set (and its order).
var stageNames = []string{"coarsen", "seed", "refine"}

// histogram is a fixed-bounds Prometheus-style histogram; counts has one
// slot per bound plus the +Inf overflow.
type histogram struct {
	bounds []float64
	counts []int64
	sum    float64
	total  int64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.total++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// write renders the histogram under name; labels is either empty or a
// `key="value"` fragment merged into each bucket's label set.
func (h *histogram) write(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, trimFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.total)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total)
	}
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		outcomes:    make(map[string]int64),
		rejected:    make(map[string]int64),
		shed:        make(map[string]int64),
		latency:     newHistogram(latencyBuckets),
		stages:      make(map[string]*histogram, len(stageNames)),
		fmPasses:    newHistogram(passBuckets),
		batchRounds: newHistogram(passBuckets),
	}
	for _, s := range stageNames {
		h := newHistogram(stageBuckets)
		m.stages[s] = &h
	}
	return m
}

// JobDone records a finished job's outcome ("feasible", "infeasible",
// "deadline_exceeded", "cancelled", "error") and its solve latency.
func (m *Metrics) JobDone(outcome string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outcomes[outcome]++
	m.latency.observe(d.Seconds())
}

// SolveTrace folds one solve's trace summary into the per-stage wall-time
// histograms and the FM pass-count histogram.
func (m *Metrics) SolveTrace(s engine.TraceSummary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stages["coarsen"].observe(float64(s.CoarsenNS) / 1e9)
	m.stages["seed"].observe(float64(s.SeedNS) / 1e9)
	m.stages["refine"].observe(float64(s.RefineNS) / 1e9)
	m.fmPasses.observe(float64(s.FMPasses))
	if s.BatchRounds > 0 {
		m.batchRounds.observe(float64(s.BatchRounds))
	}
	m.batchMoves += int64(s.BatchMoves)
	m.batchCands += int64(s.BatchCands)
	m.batchDegraded += int64(s.BatchDegraded)
}

// HyperResult folds one solved job's replication and hyperedge-cut
// outcome into the counters.
func (m *Metrics) HyperResult(replicated int, hcut int64) {
	m.mu.Lock()
	m.replicatedNodes += int64(replicated)
	m.hyperedgeCut += hcut
	m.mu.Unlock()
}

// CacheHit / CacheMiss record result-cache lookups.
func (m *Metrics) CacheHit()  { m.mu.Lock(); m.cacheHit++; m.mu.Unlock() }
func (m *Metrics) CacheMiss() { m.mu.Lock(); m.cacheMiss++; m.mu.Unlock() }

// Coalesced records a request attached to an identical in-flight job.
func (m *Metrics) Coalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }

// Rejected records a rejected submission by reason.
func (m *Metrics) Rejected(reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

// Shed records a load-shed submission by priority class.
func (m *Metrics) Shed(priority string) {
	m.mu.Lock()
	m.shed[priority]++
	m.mu.Unlock()
}

// RecoveredJob records one job replayed from the journal at startup.
func (m *Metrics) RecoveredJob() { m.mu.Lock(); m.recovered++; m.mu.Unlock() }

// WorkerPanic records a solver panic contained by a worker.
func (m *Metrics) WorkerPanic() { m.mu.Lock(); m.panics++; m.mu.Unlock() }

// DegradedRetry records a degraded-configuration retry after a panic.
func (m *Metrics) DegradedRetry() { m.mu.Lock(); m.degraded++; m.mu.Unlock() }

// JournalError records a failed journal append or fsync.
func (m *Metrics) JournalError() { m.mu.Lock(); m.journalErrs++; m.mu.Unlock() }

// Resilience returns the crash-safety counters (tests).
func (m *Metrics) Resilience() (recovered, panics, degraded, journalErrs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered, m.panics, m.degraded, m.journalErrs
}

// ShedCount returns the load-shed count for one priority class (tests).
func (m *Metrics) ShedCount(priority string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shed[priority]
}

// Snapshot values used by tests.
func (m *Metrics) Counts() (hits, misses, coalesced int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHit, m.cacheMiss, m.coalesced
}

// Outcome returns the count recorded for one job outcome.
func (m *Metrics) Outcome(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.outcomes[name]
}

// GaugeSample carries the live gauges the /metrics handler samples from
// the scheduler at scrape time.
type GaugeSample struct {
	// QueueDepth is the number of jobs waiting for a worker.
	QueueDepth int
	// InFlight is the number of jobs currently solving.
	InFlight int
	// CacheEntries is the LRU result-cache population.
	CacheEntries int
	// QuarantinedGraphs is the number of graph hashes refused after
	// repeated solver panics.
	QuarantinedGraphs int
	// SolveEWMASeconds is the solve-time moving average feeding
	// Retry-After hints (0 until the first solve completes).
	SolveEWMASeconds float64
}

// WriteTo renders the registry in the Prometheus text format, together
// with the live gauges the caller samples from the scheduler.
func (m *Metrics) WriteTo(w io.Writer, g GaugeSample) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP ppnd_jobs_total Finished partition jobs by outcome.\n")
	fmt.Fprintf(w, "# TYPE ppnd_jobs_total counter\n")
	for _, k := range sortedKeys(m.outcomes) {
		fmt.Fprintf(w, "ppnd_jobs_total{outcome=%q} %d\n", k, m.outcomes[k])
	}
	fmt.Fprintf(w, "# HELP ppnd_cache_hits_total Result-cache hits.\n")
	fmt.Fprintf(w, "# TYPE ppnd_cache_hits_total counter\n")
	fmt.Fprintf(w, "ppnd_cache_hits_total %d\n", m.cacheHit)
	fmt.Fprintf(w, "# HELP ppnd_cache_misses_total Result-cache misses.\n")
	fmt.Fprintf(w, "# TYPE ppnd_cache_misses_total counter\n")
	fmt.Fprintf(w, "ppnd_cache_misses_total %d\n", m.cacheMiss)
	fmt.Fprintf(w, "# HELP ppnd_coalesced_total Requests attached to an identical in-flight job.\n")
	fmt.Fprintf(w, "# TYPE ppnd_coalesced_total counter\n")
	fmt.Fprintf(w, "ppnd_coalesced_total %d\n", m.coalesced)
	fmt.Fprintf(w, "# HELP ppnd_rejected_total Rejected submissions by reason.\n")
	fmt.Fprintf(w, "# TYPE ppnd_rejected_total counter\n")
	for _, k := range sortedKeys(m.rejected) {
		fmt.Fprintf(w, "ppnd_rejected_total{reason=%q} %d\n", k, m.rejected[k])
	}
	fmt.Fprintf(w, "# HELP ppnd_shed_total Load-shed submissions by priority class.\n")
	fmt.Fprintf(w, "# TYPE ppnd_shed_total counter\n")
	for _, k := range sortedKeys(m.shed) {
		fmt.Fprintf(w, "ppnd_shed_total{priority=%q} %d\n", k, m.shed[k])
	}
	fmt.Fprintf(w, "# HELP ppnd_recovered_jobs_total Jobs replayed from the journal at startup.\n")
	fmt.Fprintf(w, "# TYPE ppnd_recovered_jobs_total counter\n")
	fmt.Fprintf(w, "ppnd_recovered_jobs_total %d\n", m.recovered)
	fmt.Fprintf(w, "# HELP ppnd_worker_panics_total Solver panics contained by the worker pool.\n")
	fmt.Fprintf(w, "# TYPE ppnd_worker_panics_total counter\n")
	fmt.Fprintf(w, "ppnd_worker_panics_total %d\n", m.panics)
	fmt.Fprintf(w, "# HELP ppnd_degraded_retries_total Degraded-configuration retries after a solver panic.\n")
	fmt.Fprintf(w, "# TYPE ppnd_degraded_retries_total counter\n")
	fmt.Fprintf(w, "ppnd_degraded_retries_total %d\n", m.degraded)
	fmt.Fprintf(w, "# HELP ppnd_journal_errors_total Failed journal appends or fsyncs.\n")
	fmt.Fprintf(w, "# TYPE ppnd_journal_errors_total counter\n")
	fmt.Fprintf(w, "ppnd_journal_errors_total %d\n", m.journalErrs)

	fmt.Fprintf(w, "# HELP ppnd_queue_depth Jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE ppnd_queue_depth gauge\n")
	fmt.Fprintf(w, "ppnd_queue_depth %d\n", g.QueueDepth)
	fmt.Fprintf(w, "# HELP ppnd_in_flight Jobs currently solving.\n")
	fmt.Fprintf(w, "# TYPE ppnd_in_flight gauge\n")
	fmt.Fprintf(w, "ppnd_in_flight %d\n", g.InFlight)
	fmt.Fprintf(w, "# HELP ppnd_cache_entries Results held in the LRU cache.\n")
	fmt.Fprintf(w, "# TYPE ppnd_cache_entries gauge\n")
	fmt.Fprintf(w, "ppnd_cache_entries %d\n", g.CacheEntries)
	fmt.Fprintf(w, "# HELP ppnd_quarantined_graphs Graph hashes refused after repeated solver panics.\n")
	fmt.Fprintf(w, "# TYPE ppnd_quarantined_graphs gauge\n")
	fmt.Fprintf(w, "ppnd_quarantined_graphs %d\n", g.QuarantinedGraphs)
	fmt.Fprintf(w, "# HELP ppnd_solve_ewma_seconds Moving average of solve wall-clock feeding Retry-After hints.\n")
	fmt.Fprintf(w, "# TYPE ppnd_solve_ewma_seconds gauge\n")
	fmt.Fprintf(w, "ppnd_solve_ewma_seconds %g\n", g.SolveEWMASeconds)

	gets, news, puts := arena.Stats()
	fmt.Fprintf(w, "# HELP ppnd_arena_checkouts_total Solver workspace checkouts from the arena.\n")
	fmt.Fprintf(w, "# TYPE ppnd_arena_checkouts_total counter\n")
	fmt.Fprintf(w, "ppnd_arena_checkouts_total %d\n", gets)
	fmt.Fprintf(w, "# HELP ppnd_arena_allocs_total Checkouts that had to allocate a fresh workspace (pool miss).\n")
	fmt.Fprintf(w, "# TYPE ppnd_arena_allocs_total counter\n")
	fmt.Fprintf(w, "ppnd_arena_allocs_total %d\n", news)
	fmt.Fprintf(w, "# HELP ppnd_arena_returns_total Workspaces returned to the arena.\n")
	fmt.Fprintf(w, "# TYPE ppnd_arena_returns_total counter\n")
	fmt.Fprintf(w, "ppnd_arena_returns_total %d\n", puts)

	ps := pool.Default().Stats()
	fmt.Fprintf(w, "# HELP ppnd_pool_busy_workers Shared solver-pool helpers currently draining a task batch.\n")
	fmt.Fprintf(w, "# TYPE ppnd_pool_busy_workers gauge\n")
	fmt.Fprintf(w, "ppnd_pool_busy_workers %d\n", ps.Busy)
	fmt.Fprintf(w, "# HELP ppnd_pool_queue_depth Published task batches not yet picked up by a pool helper.\n")
	fmt.Fprintf(w, "# TYPE ppnd_pool_queue_depth gauge\n")
	fmt.Fprintf(w, "ppnd_pool_queue_depth %d\n", ps.QueueDepth)
	fmt.Fprintf(w, "# HELP ppnd_pool_tasks_total Tasks executed on the shared solver pool.\n")
	fmt.Fprintf(w, "# TYPE ppnd_pool_tasks_total counter\n")
	fmt.Fprintf(w, "ppnd_pool_tasks_total %d\n", ps.Tasks)

	fmt.Fprintf(w, "# HELP ppnd_solve_seconds Solve wall-clock latency.\n")
	fmt.Fprintf(w, "# TYPE ppnd_solve_seconds histogram\n")
	m.latency.write(w, "ppnd_solve_seconds", "")

	fmt.Fprintf(w, "# HELP ppnd_stage_seconds Per-stage solve wall time from the engine trace.\n")
	fmt.Fprintf(w, "# TYPE ppnd_stage_seconds histogram\n")
	for _, s := range stageNames {
		m.stages[s].write(w, "ppnd_stage_seconds", fmt.Sprintf("stage=%q", s))
	}

	fmt.Fprintf(w, "# HELP ppnd_fm_passes FM refinement passes per solve.\n")
	fmt.Fprintf(w, "# TYPE ppnd_fm_passes histogram\n")
	m.fmPasses.write(w, "ppnd_fm_passes", "")
	fmt.Fprintf(w, "# HELP ppnd_batch_rounds Batch refinement rounds per batch-mode solve.\n")
	fmt.Fprintf(w, "# TYPE ppnd_batch_rounds histogram\n")
	m.batchRounds.write(w, "ppnd_batch_rounds", "")
	fmt.Fprintf(w, "# HELP ppnd_batch_moves_total Accepted batch moves; divided by ppnd_batch_cands_total this is the adaptive-quota accept rate.\n")
	fmt.Fprintf(w, "# TYPE ppnd_batch_moves_total counter\n")
	fmt.Fprintf(w, "ppnd_batch_moves_total %d\n", m.batchMoves)
	fmt.Fprintf(w, "# HELP ppnd_batch_cands_total Candidates offered to batch selection rounds.\n")
	fmt.Fprintf(w, "# TYPE ppnd_batch_cands_total counter\n")
	fmt.Fprintf(w, "ppnd_batch_cands_total %d\n", m.batchCands)
	fmt.Fprintf(w, "# HELP ppnd_batch_degraded_total Levels whose batch refinement panicked and fell back to serial.\n")
	fmt.Fprintf(w, "# TYPE ppnd_batch_degraded_total counter\n")
	fmt.Fprintf(w, "ppnd_batch_degraded_total %d\n", m.batchDegraded)
	fmt.Fprintf(w, "# HELP ppnd_replicated_nodes Clones committed by the logic-replication pass across solves.\n")
	fmt.Fprintf(w, "# TYPE ppnd_replicated_nodes counter\n")
	fmt.Fprintf(w, "ppnd_replicated_nodes %d\n", m.replicatedNodes)
	fmt.Fprintf(w, "# HELP ppnd_hyperedge_cut Summed hyperedge connectivity-1 cost of delivered results.\n")
	fmt.Fprintf(w, "# TYPE ppnd_hyperedge_cut counter\n")
	fmt.Fprintf(w, "ppnd_hyperedge_cut %d\n", m.hyperedgeCut)
}

func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
