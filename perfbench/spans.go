package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one benchmark
// operation share Op; Parent is the ID of the span that made the call (0
// for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Cycle is the engine cycle index of a stage span (-1 elsewhere);
	// Nodes is the level size an engine.refine span worked on.
	Cycle int `json:"cycle"`
	Nodes int `json:"nodes,omitempty"`
	// Tag marks a matching probe span "won" or "lost" in its level's
	// best-of-three comparison.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends so
// recording costs a clock read and an append under a mutex. Engine stages
// of concurrent cycles record from several goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens s (its Name, Parent, Op, Cycle and Nodes set by the caller)
// and returns its ID. A nil tracer records nothing, so the same code path
// runs with and without spans.
func (t *tracer) begin(s span) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = now
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) tag(id int, tag string) {
	t.mu.Lock()
	t.spans[id-1].Tag = tag
	t.mu.Unlock()
}

// call runs fn inside a span named name and returns the span's ID.
func (t *tracer) call(name string, parent, op int, fn func()) int {
	id := t.begin(span{Name: name, Parent: parent, Op: op, Cycle: -1})
	fn()
	t.end(id)
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID (index ID-1), the span's duration minus
// the part of its interval that its children cover. Children may overlap
// each other (concurrent engine cycles), so their intervals are merged
// before being subtracted, and each is clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo,hi) covered by the union of the spans.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curA, curB int64 = 0, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spanDir is where traced runs write their spans, inside the build
// directory run.sh keeps out of version control.
const spanDir = ".bench_build/spans"

// writeSpans stores the spans as JSON lines in spanDir.
func writeSpans(name string, spans []span) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", fmt.Errorf("create span directory: %w", err)
	}
	path := filepath.Join(spanDir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close span file: %w", err)
	}
	return path, nil
}
