package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"ppnpart/internal/gen"
)

// FuzzTraceDecode hammers the strict trace decoder: arbitrary input must
// either be rejected or decode into a TraceData that survives an
// encode/decode round trip unchanged. Tools consume trace files written
// by other runs (and possibly other versions), so the decoder must never
// panic and never accept a document it cannot faithfully re-encode.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{"seed":1,"k":4,"prune":"off","cycles":[]}`))
	f.Add([]byte(`{"cycles":[{"cycle":0,"feasible":true,"goodness":5,` +
		`"levels":[{"level":0,"heuristic":"heavy-edge","fine_nodes":10,"coarse_nodes":5,"ratio":0.5,` +
		`"candidates":[{"heuristic":"random","matched_weight":3,"pairs":2}]}],` +
		`"retry":{"feasible":true,"continue":false,"reason":"feasible-stop"}}]}`))
	f.Add([]byte(`{"cycles":[{"cycle":0}]}{"trailing":true}`))

	// One genuine trace from a small solve seeds the corpus with the full
	// schema (seeding, refines, retry, outcome).
	g, err := gen.RandomConnected(30, 60,
		gen.WeightRange{Lo: 1, Hi: 10}, gen.WeightRange{Lo: 1, Hi: 5},
		rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	tr := &Trace{OmitTiming: true}
	New(Config{K: 2, Seed: 1, MaxCycles: 2, Parallelism: 1}).Solve(context.Background(), g, tr)
	golden, err := tr.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)

	f.Fuzz(func(t *testing.T, data []byte) {
		td, err := DecodeTrace(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		b, err := json.Marshal(td)
		if err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		td2, err := DecodeTrace(b)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(td, td2) {
			t.Fatalf("round trip changed the trace:\nfirst:  %+v\nsecond: %+v", td, td2)
		}
	})
}
