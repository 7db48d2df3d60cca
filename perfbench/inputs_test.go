package main

import (
	"bytes"
	"testing"

	"ppnpart/internal/server"
)

func TestLibraryInputsAreDeterministicInTheSeed(t *testing.T) {
	a, err := fanoutInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fanoutInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fanoutInputs(4)
	if err != nil {
		t.Fatal(err)
	}
	if libraryDigest(a) != libraryDigest(b) {
		t.Errorf("same seed gave different fanout inputs")
	}
	if libraryDigest(a) == libraryDigest(c) {
		t.Errorf("different seeds gave the same fanout inputs")
	}
	if libraryDigest(a[:1]) == libraryDigest(a[1:2]) {
		t.Errorf("networks of one set are identical")
	}
	for _, in := range a {
		if in.g.NumHyperEdges() == 0 || !in.opts.Replicate {
			t.Errorf("fanout input without nets or replication")
		}
	}

	x, err := batchInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	y, err := batchInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	if libraryDigest(x) != libraryDigest(y) {
		t.Errorf("same seed gave different batch inputs")
	}
	if len(x) != batchGraphs || libraryDigest(x[:1]) == libraryDigest(x[1:2]) || x[0].opts.Seed == x[1].opts.Seed {
		t.Errorf("batch inputs do not cycle through distinct graphs and solver seeds")
	}
	if g := x[0].g; g.NumNodes() != batchNodes || g.NumEdges() != batchEdges {
		t.Errorf("batch graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestMixBodiesAreDeterministicAndCarryTheSeed(t *testing.T) {
	a, err := mixInput(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mixInput(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.body(42), b.body(42)) {
		t.Errorf("same seed gave different request bodies")
	}
	c, err := mixInput(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.body(42), c.body(42)) {
		t.Errorf("different workload seeds gave the same body")
	}
	d, err := mixInput(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.body(42), d.body(42)) {
		t.Errorf("two graphs gave the same body")
	}

	req, g, err := server.DecodeJobRequest(bytes.NewReader(a.body(42)))
	if err != nil {
		t.Fatalf("server rejects the body: %v", err)
	}
	if req.Options.Seed != 42 || req.K != mixK || g.NumNodes() != mixNodes || g.NumEdges() != mixEdges {
		t.Errorf("decoded seed %d, k %d, %d nodes, %d edges", req.Options.Seed, req.K, g.NumNodes(), g.NumEdges())
	}
	if req.CacheKey(g) == mustKey(t, a.body(43)) {
		t.Errorf("a fresh seed did not change the cache key")
	}
	var want, got bytes.Buffer
	graphDigest(&want, a.g)
	graphDigest(&got, g)
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("the checker's graph differs from the one the server builds")
	}
}

func mustKey(t *testing.T, body []byte) string {
	t.Helper()
	req, g, err := server.DecodeJobRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req.CacheKey(g)
}
