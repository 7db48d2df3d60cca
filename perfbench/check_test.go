package main

import (
	"strings"
	"testing"

	"ppnpart/internal/core"
)

// solvedFanout returns a small fanout input and the library's answer.
func solvedFanout(t *testing.T) (libraryInput, answer) {
	t.Helper()
	ins, err := fanoutInputs(9)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[0]
	res, err := core.Partition(in.g, in.opts)
	if err != nil {
		t.Fatal(err)
	}
	return in, coreAnswer(res)
}

func TestCheckAcceptsTheLibraryAnswer(t *testing.T) {
	in, a := solvedFanout(t)
	cost, err := check(in.g, in.opts.K, in.opts.Constraints, a)
	if err != nil {
		t.Fatalf("check rejected a library answer: %v", err)
	}
	if cost <= 0 || float64(cost) != a.Goodness {
		t.Fatalf("cost %d, goodness %v", cost, a.Goodness)
	}
	if a.Replicas == nil {
		t.Fatalf("fanout solve returned no replica overlay")
	}
}

func TestCheckRejectsCorruptedAnswers(t *testing.T) {
	in, good := solvedFanout(t)
	for _, c := range []struct {
		name    string
		corrupt func(a *answer)
		want    string
	}{
		{"part out of range", func(a *answer) { a.Parts[3] = in.opts.K }, "outside"},
		{"negative part", func(a *answer) { a.Parts[0] = -1 }, "outside"},
		{"short partition", func(a *answer) { a.Parts = a.Parts[1:] }, "entries"},
		{"wrong edge_cut", func(a *answer) { a.EdgeCut++ }, "edge_cut"},
		{"wrong hyperedge_cut", func(a *answer) { a.HyperCut-- }, "hyperedge_cut"},
		{"wrong max_resource", func(a *answer) { a.MaxResource++ }, "max_resource"},
		{"infeasible", func(a *answer) { a.Feasible = false }, "infeasible"},
		{"goodness off the cost", func(a *answer) { a.Goodness++ }, "goodness"},
		{"replica out of range", func(a *answer) { a.Replicas[1] = in.opts.K }, "replicated"},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := good
			a.Parts = append([]int(nil), good.Parts...)
			a.Replicas = append([]int(nil), good.Replicas...)
			c.corrupt(&a)
			_, err := check(in.g, in.opts.K, in.opts.Constraints, a)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("check = %v, want an error mentioning %q", err, c.want)
			}
		})
	}
}

func TestSameAnswerSpotsAnyDifference(t *testing.T) {
	_, a := solvedFanout(t)
	if err := sameAnswer(a, a); err != nil {
		t.Fatalf("an answer differs from itself: %v", err)
	}
	b := a
	b.Parts = append([]int(nil), a.Parts...)
	b.Parts[0] = (b.Parts[0] + 1) % 8
	if sameAnswer(a, b) == nil {
		t.Errorf("a moved node went unnoticed")
	}
	c := a
	c.Goodness++
	if sameAnswer(a, c) == nil {
		t.Errorf("a different goodness went unnoticed")
	}
}
