package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/server"
)

// costMisses is how many of each client's first misses the cost metric
// averages, two per graph; a fixed count keeps it exact run to run for a
// seed. Rounds the window did not reach are sent after it.
const costMisses = 2 * mixGraphs

// roundKind says how a round reached the scheduler.
type roundKind int

const (
	// roundHTTP goes through the real client and HTTP handler.
	roundHTTP roundKind = iota
	// roundReplay replays the handler's steps on the scheduler without
	// spans; roundTraced replays them with a span per step. The traced
	// run's overhead is the difference between the two.
	roundReplay
	roundTraced
)

// missSeed is the options.seed of client ci's round r. Seed 1 is the
// warm-up's; every round gets a fresh one, so every miss is a new cache
// key.
func missSeed(ci, r int) int64 { return int64(2 + r*mixClients + ci) }

// mixServer is an in-process ppnd built the way cmd/ppnd builds it by
// default, driven through the real server.Client with retries off.
type mixServer struct {
	sched  *server.Scheduler
	http   *httptest.Server
	client server.Client
}

func startMix(logw io.Writer) *mixServer {
	workers := max(runtime.GOMAXPROCS(0)/2, 1)
	sched := server.NewScheduler(server.Config{Workers: workers, QueueDepth: 64, CacheSize: 256}, nil)
	srv := server.New(sched, log.New(logw, "ppnd: ", log.LstdFlags))
	srv.VerifyResults = true
	srv.SetReady(true)
	hs := httptest.NewServer(srv)
	return &mixServer{
		sched:  sched,
		http:   hs,
		client: server.Client{BaseURL: hs.URL, HTTP: hs.Client(), Retry: server.RetryPolicy{MaxAttempts: 1}},
	}
}

// close stops the HTTP server, waiting for its handlers, then the
// scheduler's workers.
func (s *mixServer) close() {
	s.http.Close()
	s.sched.Close()
}

// mixReq is one request's record; its checks run after the window.
type mixReq struct {
	lat    float64
	status int
	body   []byte
	// res is set by the traced path, which calls the scheduler directly.
	res *server.JobResult
	err error
	// queueWait and solve are the traced path's split of a miss.
	queueWait, solve float64
}

// mixRound is one client's miss followed by the hit that resubmits the
// same body: the workload's operation.
type mixRound struct {
	graph     *mixGraph
	seed      int64
	kind      roundKind
	lat       float64
	miss, hit mixReq
}

func (s *mixServer) send(body []byte) mixReq {
	t := time.Now()
	resp, err := s.client.Submit(context.Background(), body)
	if err != nil {
		return mixReq{lat: time.Since(t).Seconds(), err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return mixReq{lat: time.Since(t).Seconds(), status: resp.StatusCode, body: b, err: err}
}

func (s *mixServer) httpRound(g *mixGraph, seed int64) mixRound {
	body := g.body(seed)
	t := time.Now()
	miss := s.send(body)
	hit := s.send(body)
	return mixRound{graph: g, seed: seed, lat: time.Since(t).Seconds(), miss: miss, hit: hit}
}

// envelope mirrors the daemon's job response body.
type envelope struct {
	JobID  string            `json:"job_id,omitempty"`
	State  server.JobState   `json:"state"`
	Result *server.JobResult `json:"result,omitempty"`
}

// tracedRequest runs the daemon's request path for body step by step on
// the same scheduler — decode, key, submit, wait, verify, encode — with a
// span around each call, or with no spans when t is nil. Submit hashes
// the key again internally; the separate key span is what isolates that
// cost.
func (s *mixServer) tracedRequest(t *tracer, op int, body []byte) mixReq {
	start := time.Now()
	root := t.begin(span{Name: "server.request", Op: op, Cycle: -1})
	out := s.tracedSteps(t, op, root, body)
	t.end(root)
	out.lat = time.Since(start).Seconds()
	return out
}

func (s *mixServer) tracedSteps(t *tracer, op, root int, body []byte) mixReq {
	var req *server.JobRequest
	var g *graph.Graph
	var err error
	t.call("server.decode", root, op, func() { req, g, err = server.DecodeJobRequest(bytes.NewReader(body)) })
	if err != nil {
		return mixReq{err: err}
	}
	t.call("server.key", root, op, func() { _ = req.CacheKey(g) })
	var job *server.Job
	var cached *server.JobResult
	submitted := time.Now()
	t.call("server.submit", root, op, func() { job, cached, _, err = s.sched.Submit(req, g) })
	if err != nil {
		return mixReq{err: err}
	}
	out := mixReq{res: cached}
	env := envelope{State: server.StateDone, Result: cached}
	if cached == nil {
		t.call("server.wait", root, op, func() { <-job.Done() })
		out.res = job.Result()
		env = envelope{JobID: job.ID, State: job.State(), Result: out.res}
		if out.res == nil {
			return mixReq{err: fmt.Errorf("job %s settled without a result", job.ID)}
		}
		out.solve = float64(out.res.SolveMS) / 1e3
		out.queueWait = time.Since(submitted).Seconds() - out.solve
	}
	// The recompute VerifyResults does; checkRound compares its figures
	// after the window.
	vid := t.begin(span{Name: "server.verify", Parent: root, Op: op, Cycle: -1})
	t.call("metrics.evaluate", vid, op, func() {
		metrics.Evaluate(g, out.res.Parts, req.K, metrics.Constraints{Bmax: req.Bmax, Rmax: req.Rmax})
	})
	t.end(vid)
	t.call("server.encode", root, op, func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		out.err = enc.Encode(env)
	})
	return out
}

// replayRound sends a miss and its hit through tracedRequest: a traced
// round when t is set, a plain replay when it is nil.
func (s *mixServer) replayRound(t *tracer, op int, g *mixGraph, seed int64) mixRound {
	body := g.body(seed)
	start := time.Now()
	miss := s.tracedRequest(t, op, body)
	hit := s.tracedRequest(t, op, body)
	kind := roundReplay
	if t != nil {
		kind = roundTraced
	}
	return mixRound{graph: g, seed: seed, kind: kind, lat: time.Since(start).Seconds(), miss: miss, hit: hit}
}

// result decodes a request's response, failing on a transport error, a
// non-200 status, a body that does not decode or a job not done.
func (r mixReq) result() (*server.JobResult, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.res != nil {
		return r.res, nil
	}
	if r.status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	var env envelope
	if err := json.Unmarshal(r.body, &env); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if env.State != server.StateDone || env.Result == nil {
		return nil, fmt.Errorf("job state %q", env.State)
	}
	return env.Result, nil
}

// checkRound checks both answers against a from-scratch recompute, the
// hit against the miss that filled the cache, and the miss against a
// library core.Partition with the same options. It returns the miss's
// cost.
func checkRound(r mixRound) (int64, error) {
	miss, err := r.miss.result()
	if err != nil {
		return 0, fmt.Errorf("miss: %w", err)
	}
	hit, err := r.hit.result()
	if err != nil {
		return 0, fmt.Errorf("hit: %w", err)
	}
	if miss.Cached || !hit.Cached {
		return 0, fmt.Errorf("cache flags miss=%v hit=%v, want false and true", miss.Cached, hit.Cached)
	}
	c := r.graph
	opts := c.options(r.seed)
	cost, err := check(c.g, opts.K, opts.Constraints, jobAnswer(miss))
	if err != nil {
		return 0, fmt.Errorf("miss: %w", err)
	}
	if _, err := check(c.g, opts.K, opts.Constraints, jobAnswer(hit)); err != nil {
		return 0, fmt.Errorf("hit: %w", err)
	}
	if err := sameAnswer(jobAnswer(miss), jobAnswer(hit)); err != nil {
		return 0, fmt.Errorf("hit differs from the miss that filled the cache: %w", err)
	}
	lib, err := core.Partition(c.g, opts)
	if err != nil {
		return 0, fmt.Errorf("library solve: %w", err)
	}
	if err := sameAnswer(coreAnswer(lib), jobAnswer(miss)); err != nil {
		return 0, fmt.Errorf("miss differs from core.Partition: %w", err)
	}
	return cost, nil
}

func runMix(cfg config) (*outcome, error) {
	// graphs[ci] are client ci's request graphs, cycled round by round.
	var graphs [][]*mixGraph
	var env *mixServer
	var warm mixRound
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	setupS, err := timedSetup(func() error {
		if env != nil {
			env.close()
			env = nil
		}
		graphs = make([][]*mixGraph, mixClients)
		for ci := range graphs {
			for j := 0; j < mixGraphs; j++ {
				g, err := mixInput(cfg.seed, ci*mixGraphs+j)
				if err != nil {
					return err
				}
				graphs[ci] = append(graphs[ci], g)
			}
		}
		env = startMix(cfg.stderr)
		warm = env.httpRound(graphs[0][0], 1)
		return nil
	})
	if err == nil {
		_, err = checkRound(warm)
	}
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
	}
	out := &outcome{metrics: map[string]float64{"setup_s": setupS}, info: map[string]any{
		"inputs": map[string]int{
			"clients": mixClients, "graphs_per_client": mixGraphs, "nodes": mixNodes, "edges": mixEdges,
			"nets": 0, "k": mixK, "body_bytes": graphs[0][0].bodyBytes(),
		},
		"input_digest": mixDigest(graphs),
	}}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	hits0, misses0, _ := env.sched.Metrics().Counts()
	before := readCounters()
	rounds := make([][]mixRound, mixClients)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for ci := range rounds {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; time.Now().Before(deadline); r++ {
				seed := missSeed(ci, r)
				if tr == nil {
					rounds[ci] = append(rounds[ci], env.httpRound(graphs[ci][r%mixGraphs], seed))
					continue
				}
				// The traced run rotates an HTTP round, a plain replay
				// and a traced replay on the same graph: the HTTP rounds
				// give the per-class latencies, the two replays the
				// tracing overhead.
				g := graphs[ci][r/3%mixGraphs]
				switch roundKind(r % 3) {
				case roundHTTP:
					rounds[ci] = append(rounds[ci], env.httpRound(g, seed))
				case roundReplay:
					rounds[ci] = append(rounds[ci], env.replayRound(nil, 0, g, seed))
				default:
					rounds[ci] = append(rounds[ci], env.replayRound(tr, 1+r*mixClients+ci, g, seed))
				}
			}
		}(ci)
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	after := readCounters()
	hits1, misses1, _ := env.sched.Metrics().Counts()

	fails := &failures{out: cfg.stderr}
	var all []mixRound
	var costSum float64
	extra := 0
	for ci, rs := range rounds {
		for i, r := range rs {
			all = append(all, r)
			cost, err := checkRound(r)
			if err != nil {
				fails.add(1+i*mixClients+ci, err)
				continue
			}
			if i < costMisses {
				costSum += float64(cost)
			}
		}
		// Untimed rounds that complete the cost set.
		for r := len(rs); r < costMisses; r++ {
			extra++
			cost, err := checkRound(env.httpRound(graphs[ci][r%mixGraphs], missSeed(ci, r)))
			if err != nil {
				fails.add(1+r*mixClients+ci, err)
				continue
			}
			costSum += float64(cost)
		}
	}
	hitRatio := ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	if hitRatio != 0.5 {
		fails.add(0, fmt.Errorf("cache hit ratio %v, want 0.5", hitRatio))
	}
	out.attempted, out.failed = len(all)+extra, fails.n

	var roundLat, hitLat, missLat, replayLat, tracedLat []float64
	for _, r := range all {
		switch r.kind {
		case roundReplay:
			replayLat = append(replayLat, r.lat)
		case roundTraced:
			tracedLat = append(tracedLat, r.lat)
		default:
			roundLat = append(roundLat, r.lat)
			hitLat = append(hitLat, r.hit.lat)
			missLat = append(missLat, r.miss.lat)
		}
	}
	m := out.metrics
	m["ops_per_s"] = float64(len(all)-fails.n) / window
	m["op_s_p50"] = percentile(roundLat, 50)
	m["cost"] = costSum / float64(mixClients*costMisses)
	m["hit_s_p50"], m["hit_s_p90"] = percentile(hitLat, 50), percentile(hitLat, 90)
	m["miss_s_p50"], m["miss_s_p90"] = percentile(missLat, 50), percentile(missLat, 90)
	m["server.hit_ratio"] = hitRatio
	windowMetrics(m, before, after, len(all))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss
	for _, k := range []string{"hit_s_p50", "hit_s_p90", "miss_s_p50", "miss_s_p90", "server.hit_ratio"} {
		out.info[k] = m[k]
	}
	out.info["rounds"] = len(all)
	out.info["rounds_after_window"] = extra
	out.info["requests"] = 2 * len(all)
	out.info["window_s"] = window
	out.info["steal_share"] = stealShare(before, after, window)

	if tr != nil {
		spans := tr.snapshot()
		mixLayers(m, spans, all)
		m["trace.overhead_s"] = percentile(tracedLat, 50) - percentile(replayLat, 50)
		path, err := writeSpans(fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed), spans)
		if err != nil {
			return nil, err
		}
		out.info["spans"] = len(spans)
		out.info["span_file"] = path
		out.info["replay_s_p50"] = percentile(replayLat, 50)
		out.info["replay_s_p50_traced"] = percentile(tracedLat, 50)
	}
	return out, nil
}

// mixLayers reduces the traced rounds' spans to per-request server
// figures; queue wait and solve time are per miss.
func mixLayers(m map[string]float64, spans []span, rounds []mixRound) {
	var requests, misses float64
	for _, r := range rounds {
		if r.kind == roundTraced {
			requests += 2
			misses++
			m["server.queue_wait_s"] += r.miss.queueWait
			m["server.solve_s"] += r.miss.solve
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "server.decode", "server.key", "server.verify", "server.encode", "metrics.evaluate":
			m[spanMetric[s.Name]] += float64(s.dur()) / 1e9
		}
	}
	for _, k := range []string{"server.decode_s", "server.key_s", "server.verify_s", "server.encode_s", "metrics.evaluate_s"} {
		m[k] = ratio(m[k], requests)
	}
	m["server.queue_wait_s"] = ratio(m["server.queue_wait_s"], misses)
	m["server.solve_s"] = ratio(m["server.solve_s"], misses)
}
