package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"ppnpart/internal/core"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/ppn"
	"ppnpart/internal/server"
)

// Workload sizes; README.md says why each workload exists.
const (
	batchNodes, batchEdges, batchK = 100000, 300000, 16
	// batchGraphs is how many graphs the batch workload cycles through.
	batchGraphs = 8

	fanoutProcs, fanoutK = 5000, 8
	// fanoutNets is the size of the fixed network set the fanout workload
	// cycles through.
	fanoutNets = 8

	mixNodes, mixEdges, mixK = 20000, 60000, 8
	// mixClients is the number of closed-loop ppnd clients (the core
	// count of the machine the baseline was taken on).
	mixClients = 2
	// mixGraphs is how many graphs each client cycles through for its
	// misses; like the batch workload's graphs, they average out the
	// solve-time regime of any one graph.
	mixGraphs = 4
)

var (
	nodeWeights  = gen.WeightRange{Lo: 10, Hi: 100}
	edgeWeights  = gen.WeightRange{Lo: 1, Hi: 20}
	tokenWeights = gen.WeightRange{Lo: 10, Hi: 100}
	opsWeights   = gen.WeightRange{Lo: 1, Hi: 5}
)

// streamRNG derives an independent deterministic stream from the
// workload seed, so each generated input depends on the seed alone.
func streamRNG(seed int64, stream uint64) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x)))
}

// libraryInput is one graph a library workload partitions, with the
// options every call on it uses.
type libraryInput struct {
	g    *graph.Graph
	opts core.Options
}

// batchInputs builds the gp-batch-100k instances: Rmax and Bmax as in
// the repository's n100000 scale benchmark, every other option at its
// default apart from Seed. Solve time and cut fall into regimes that
// depend on the graph drawn, so a run cycles through batchGraphs graphs,
// each with its own solver seed, instead of resting on one draw.
func batchInputs(seed int64) ([]libraryInput, error) {
	var in []libraryInput
	for j := 0; j < batchGraphs; j++ {
		g, err := gen.RandomConnected(batchNodes, batchEdges, nodeWeights, edgeWeights, streamRNG(seed, uint64(j)))
		if err != nil {
			return nil, fmt.Errorf("generate batch graph: %w", err)
		}
		in = append(in, libraryInput{g: g, opts: core.Options{
			K: batchK,
			Constraints: metrics.Constraints{
				Rmax: g.TotalNodeWeight()*115/int64(100*batchK) + g.MaxNodeWeight(),
				Bmax: 2 * g.TotalEdgeWeight() / batchK,
			},
			Seed: seed*batchGraphs + int64(j) + 1,
		}})
	}
	return in, nil
}

// fanoutInputs builds the fixed set of broadcast-heavy process networks,
// lowered with fanout groups as hyperedges, solved with replication on.
func fanoutInputs(seed int64) ([]libraryInput, error) {
	var in []libraryInput
	for i := 0; i < fanoutNets; i++ {
		net, err := gen.RandomFanoutPPN(fanoutProcs, tokenWeights, opsWeights, streamRNG(seed, uint64(1+i)))
		if err != nil {
			return nil, fmt.Errorf("generate fanout network: %w", err)
		}
		g, err := net.ToGraphHyper(ppn.DefaultResourceModel())
		if err != nil {
			return nil, fmt.Errorf("lower fanout network: %w", err)
		}
		in = append(in, libraryInput{g: g, opts: core.Options{
			K: fanoutK,
			Constraints: metrics.Constraints{
				Rmax: g.TotalNodeWeight()*110/int64(100*fanoutK) + g.MaxNodeWeight(),
				Bmax: g.TotalEdgeWeight() / fanoutK,
			},
			Seed:      seed,
			Replicate: true,
		}})
	}
	return in, nil
}

// seedPlaceholder marks where a miss body's options.seed goes; node and
// edge weights are at most three digits, so it cannot occur elsewhere.
const seedPlaceholder = 987654321987

// mixGraph is one ppnd request graph: the graph as the server builds it
// from the wire, and the request body split around options.seed so each
// miss can carry a fresh seed without re-encoding 2.4 MB.
type mixGraph struct {
	g              *graph.Graph
	req            server.JobRequest
	prefix, suffix []byte
}

// body returns the request bytes for options.seed = s.
func (c *mixGraph) body(s int64) []byte {
	b := make([]byte, 0, len(c.prefix)+len(c.suffix)+20)
	b = append(b, c.prefix...)
	b = strconv.AppendInt(b, s, 10)
	return append(b, c.suffix...)
}

// options are the solver options the server derives from a body with
// options.seed = s.
func (c *mixGraph) options(s int64) core.Options {
	req := c.req
	req.Options.Seed = s
	return req.CoreOptions()
}

func (c *mixGraph) bodyBytes() int { return len(c.prefix) + len(c.suffix) }

// mixInput builds the i-th ppnd graph and its request template.
func mixInput(seed int64, i int) (*mixGraph, error) {
	g, err := gen.RandomConnected(mixNodes, mixEdges, nodeWeights, edgeWeights, streamRNG(seed, uint64(100+i)))
	if err != nil {
		return nil, fmt.Errorf("generate ppnd graph: %w", err)
	}
	spec := server.GraphSpec{Nodes: make([]server.NodeSpec, g.NumNodes())}
	for u := range spec.Nodes {
		spec.Nodes[u] = server.NodeSpec{ID: u, Weight: g.NodeWeight(graph.Node(u))}
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, server.EdgeSpec{U: int(e.U), V: int(e.V), Weight: e.Weight})
	}
	req := server.JobRequest{
		Graph: spec,
		K:     mixK,
		Rmax:  g.TotalNodeWeight()*115/int64(100*mixK) + g.MaxNodeWeight(),
		Bmax:  2 * g.TotalEdgeWeight() / mixK,
	}
	req.Options.Seed = seedPlaceholder
	raw, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("encode ppnd request: %w", err)
	}
	mark := []byte(strconv.FormatInt(seedPlaceholder, 10))
	if bytes.Count(raw, mark) != 1 {
		return nil, fmt.Errorf("seed placeholder not unique in request body")
	}
	at := bytes.Index(raw, mark)
	// The server partitions the graph it builds from the wire, whose
	// adjacency order follows the body's edge list, so checks recompute
	// on that graph rather than on the generator's.
	wire, err := req.BuildGraph()
	if err != nil {
		return nil, fmt.Errorf("build wire graph: %w", err)
	}
	return &mixGraph{g: wire, req: req, prefix: raw[:at], suffix: raw[at+len(mark):]}, nil
}

// graphDigest hashes a graph's weights, edges and nets in adjacency
// order, so two inputs with equal digests partition identically.
func graphDigest(h io.Writer, g *graph.Graph) {
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wi(int64(g.NumNodes()))
	for u := 0; u < g.NumNodes(); u++ {
		wi(g.NodeWeight(graph.Node(u)))
		for _, e := range g.Neighbors(graph.Node(u)) {
			wi(int64(e.To))
			wi(e.Weight)
		}
	}
	for _, he := range g.HyperEdges() {
		wi(he.Weight)
		for _, p := range he.Pins {
			wi(int64(p))
		}
	}
}

// libraryDigest fingerprints a library workload's inputs and options.
func libraryDigest(in []libraryInput) string {
	h := sha256.New()
	for _, x := range in {
		graphDigest(h, x.g)
		fmt.Fprintf(h, "%+v", x.opts)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mixDigest fingerprints the ppnd request templates.
func mixDigest(gs [][]*mixGraph) string {
	h := sha256.New()
	for _, row := range gs {
		for _, c := range row {
			h.Write(c.prefix)
			h.Write(c.suffix)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
