// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed number of seconds from a seed, checks every
// operation's output against a from-scratch internal/metrics recompute,
// and prints an info line and then one JSON result line: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a separate traced
// run. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_s_p50", "s"},
	{"cost", "tokens"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's figures, per operation unless the name
// says otherwise. A workload that does not exercise a layer reports 0.
var perLayer = []metricDef{
	{"server.decode_s", "s"},
	{"server.key_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.solve_s", "s"},
	{"server.verify_s", "s"},
	{"server.encode_s", "s"},
	{"server.hit_ratio", "ratio"},
	{"hit_s_p50", "s"},
	{"hit_s_p90", "s"},
	{"miss_s_p50", "s"},
	{"miss_s_p90", "s"},
	{"engine.coarsen_s", "s"},
	{"engine.seed_s", "s"},
	{"engine.uncoarsen_s", "s"},
	{"engine.refine_s", "s"},
	{"engine.retry_s", "s"},
	{"engine.cycles", "count"},
	{"engine.wasted_share", "ratio"},
	{"match.heavy_edge_s", "s"},
	{"match.random_s", "s"},
	{"match.kmeans_s", "s"},
	{"match.lost_share", "ratio"},
	{"coarsen.contract_s", "s"},
	{"coarsen.levels", "count"},
	{"refine.batch_s", "s"},
	{"refine.serial_s", "s"},
	{"refine.batch_accept_share", "ratio"},
	{"refine.fm_moves", "count"},
	{"refine.replicate_s", "s"},
	{"refine.replicate_trials", "count"},
	{"refine.clones", "count"},
	{"pstate.new_s", "s"},
	{"graph.to_csr_s", "s"},
	{"metrics.evaluate_s", "s"},
	{"core.unaccounted_s", "s"},
	{"pool.tasks_per_run", "count"},
	{"arena.cold_share", "ratio"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stderr   io.Writer
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// info carries input sizes, counts and figures outside the metric
	// set; it is printed on the line before the result.
	info map[string]any
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"gp-batch-100k":        runBatch,
	"ppn-fanout-replicate": runFanout,
	"ppnd-mix":             runMix,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == "summarize" {
		if err := summarize(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: gp-batch-100k, ppn-fanout-replicate or ppnd-mix")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	secs := fs.Float64("seconds", 20, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *secs, trace: *traceFlag == 1, stderr: stderr}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, d.name)
			return 1
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	info := out.info
	info["workload"] = cfg.workload
	info["seed"] = cfg.seed
	info["trace"] = cfg.trace
	info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	info["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(line); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// failures counts failed operations and reports the first few.
type failures struct {
	n   int
	out io.Writer
}

func (f *failures) add(op int, err error) {
	f.n++
	if f.n <= 5 {
		fmt.Fprintf(f.out, "perfbench: operation %d failed: %v\n", op, err)
	}
}

// timedSetup runs fn setupReps times and returns the median wall time in
// seconds; the state fn leaves behind on the last repetition is the one
// measured.
func timedSetup(fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return percentile(ts, 50), nil
}
