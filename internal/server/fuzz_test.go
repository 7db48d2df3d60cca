package server

import (
	"bytes"
	"strings"
	"testing"
)

// jobRequestSeeds is the seed corpus of the request fuzz targets.
func jobRequestSeeds() []string {
	return []string{
		ringBody(8, 3, 100, 50, ""),
		ringBody(4, 1, 0, 0, `"timeout_ms":500,"async":true`),
		`{"graph":{"nodes":[{"id":0,"weight":-3}],"edges":[]},"k":1}`,
		`{"graph":{"nodes":[{"id":0},{"id":1}],"edges":[{"u":0,"v":1,"weight":-9}]},"k":-2}`,
		`{"graph":{"nodes":[{"id":9}],"edges":[]},"k":1,"bmax":-1,"rmax":-99999999999}`,
		`{"k":4}`,
		`not json at all`,
		`{"graph":{"nodes":[{"id":0},{"id":1}],"edges":[{"u":0,"v":0,"weight":1}]},"k":1}`,
	}
}

// FuzzJobRequest hammers the job-request decoder/validator with arbitrary
// bodies: malformed JSON, hostile graphs (sparse ids, self loops,
// negative weights), absurd K/Bmax/Rmax. The decoder must never panic,
// must reject without building oversized state, and on acceptance must
// hand back a graph/request pair whose invariants hold and whose cache
// key is deterministic.
func FuzzJobRequest(f *testing.F) {
	for _, b := range jobRequestSeeds() {
		f.Add([]byte(b))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, g, err := DecodeJobRequest(bytes.NewReader(data))
		if err != nil {
			if req != nil || g != nil {
				t.Fatal("error return must not also hand back a request")
			}
			return
		}
		// Accepted: the solver preconditions must hold.
		if req.K <= 0 || req.K > g.NumNodes() {
			t.Fatalf("accepted K=%d for %d nodes", req.K, g.NumNodes())
		}
		if req.Bmax < 0 || req.Rmax < 0 || req.TimeoutMS < 0 {
			t.Fatalf("accepted negative bounds: %+v", req)
		}
		if g.NumNodes() > MaxNodes || g.NumEdges() > MaxEdges {
			t.Fatalf("accepted oversized graph: %d nodes %d edges", g.NumNodes(), g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		if err := req.CoreOptions().Validate(g); err != nil {
			t.Fatalf("accepted request fails solver validation: %v", err)
		}
		k1, k2 := req.CacheKey(g), req.CacheKey(g)
		if k1 != k2 || len(k1) != 64 || strings.ToLower(k1) != k1 {
			t.Fatalf("cache key not canonical: %q vs %q", k1, k2)
		}
	})
}
