package main

import (
	"reflect"
	"sync"
	"testing"
)

func TestSelfTimeSubtractsMergedChildIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core", Start: 0, End: 100},
		// Two concurrent cycles overlap on [20,40): covered once.
		{ID: 2, Parent: 1, Name: "engine.coarsen", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "engine.coarsen", Start: 20, End: 50},
		// A grandchild counts against its own parent only.
		{ID: 4, Parent: 3, Name: "inner", Start: 25, End: 35},
		// A child running past its parent is clipped to the parent.
		{ID: 5, Parent: 1, Name: "metrics.evaluate", Start: 90, End: 120},
		{ID: 6, Name: "probe", Start: 200, End: 230},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30, 30 - 10, 10, 30, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerRecordsNestedCalls(t *testing.T) {
	tr := newTracer()
	root := tr.begin(span{Name: "core", Op: 7, Cycle: -1})
	child := tr.call("metrics.evaluate", root, 7, func() {})
	tr.end(root)
	tr.tag(child, "won")
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Op != 7 || s[1].Tag != "won" {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Fatalf("child %+v not inside parent %+v", s[1], s[0])
	}
}

func TestTracerIsSafeForConcurrentStages(t *testing.T) {
	tr := newTracer()
	root := tr.begin(span{Name: "core", Op: 1, Cycle: -1})
	const workers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := tr.begin(span{Name: "engine.refine", Parent: root, Op: 1, Cycle: w})
				tr.end(id)
			}
		}(w)
	}
	wg.Wait()
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 1+workers*per {
		t.Fatalf("%d spans, want %d", len(s), 1+workers*per)
	}
	for i, sp := range s {
		if sp.ID != i+1 || sp.End < sp.Start {
			t.Fatalf("span %d = %+v", i, sp)
		}
	}
	if self := selfTimes(s)[0]; self < 0 || self > s[0].dur() {
		t.Fatalf("root self time %d outside [0,%d]", self, s[0].dur())
	}
}

func TestNilTracerRunsCallsWithoutRecording(t *testing.T) {
	var tr *tracer
	ran := false
	root := tr.begin(span{Name: "server.request", Cycle: -1})
	if id := tr.call("server.decode", root, 1, func() { ran = true }); id != 0 || !ran {
		t.Fatalf("nil tracer call returned id %d, ran %v; want 0, true", id, ran)
	}
	tr.end(root)
}
