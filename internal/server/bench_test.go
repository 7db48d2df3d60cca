package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
)

// mixBody encodes a request shaped like the ppnd-mix benchmark's: a
// RandomConnected graph with weighted nodes and edges listed in the
// graph's canonical order, K=8 and both bounds set.
func mixBody(tb testing.TB, nodes, edges int) []byte {
	tb.Helper()
	g, err := gen.RandomConnected(nodes, edges, gen.WeightRange{Lo: 10, Hi: 100},
		gen.WeightRange{Lo: 1, Hi: 20}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	req := JobRequest{K: 8, Bmax: 2 * g.TotalEdgeWeight() / 8, Rmax: g.TotalNodeWeight() / 7}
	req.Options.Seed = 987654321987
	req.Graph.Nodes = make([]NodeSpec, g.NumNodes())
	for u := range req.Graph.Nodes {
		req.Graph.Nodes[u] = NodeSpec{ID: u, Weight: g.NodeWeight(graph.Node(u))}
	}
	for _, e := range g.Edges() {
		req.Graph.Edges = append(req.Graph.Edges, EdgeSpec{U: int(e.U), V: int(e.V), Weight: e.Weight})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

var benchGraph *graph.Graph

// BenchmarkDecodeJobRequest decodes the 20k-node, 60k-edge body of one
// ppnd-mix request: read, parse, BuildGraph and Validate.
func BenchmarkDecodeJobRequest(b *testing.B) {
	body := mixBody(b, 20000, 60000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, g, err := DecodeJobRequest(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	}
}
