package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppnpart/internal/core"
	"ppnpart/internal/gen"
	"ppnpart/internal/metrics"
)

func TestRunTable1MatchesPaperShape(t *testing.T) {
	tab, err := RunTable(1)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(tab)
	if !s.Agrees {
		t.Fatalf("Table I shape mismatch: expected %s, observed %s", s.ShapeExpected, s.ShapeObserved)
	}
	// Paper Table I: METIS violates both; GP meets both; GP's cut is
	// slightly larger.
	if !tab.Baseline.BWViolated || !tab.Baseline.ResViolated {
		t.Fatalf("baseline should violate both: %+v", tab.Baseline)
	}
	if tab.GP.BWViolated || tab.GP.ResViolated {
		t.Fatalf("GP should meet both: %+v", tab.GP)
	}
	if tab.GP.EdgeCut <= tab.Baseline.EdgeCut {
		t.Fatalf("Table I cut ordering: GP %d should exceed baseline %d",
			tab.GP.EdgeCut, tab.Baseline.EdgeCut)
	}
}

func TestRunTable2MatchesPaperShape(t *testing.T) {
	tab, err := RunTable(2)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(tab)
	if !s.Agrees {
		t.Fatalf("Table II shape mismatch: expected %s, observed %s", s.ShapeExpected, s.ShapeObserved)
	}
	// Paper Table II: baseline meets bandwidth, violates resources; GP
	// meets both with a smaller cut.
	if tab.Baseline.BWViolated || !tab.Baseline.ResViolated {
		t.Fatalf("baseline shape wrong: %+v", tab.Baseline)
	}
	if tab.GP.EdgeCut >= tab.Baseline.EdgeCut {
		t.Fatalf("Table II cut ordering: GP %d should beat baseline %d",
			tab.GP.EdgeCut, tab.Baseline.EdgeCut)
	}
}

func TestRunTable3MatchesPaperShape(t *testing.T) {
	tab, err := RunTable(3)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(tab)
	if !s.Agrees {
		t.Fatalf("Table III shape mismatch: expected %s, observed %s", s.ShapeExpected, s.ShapeObserved)
	}
	// Paper Table III: baseline violates bandwidth only; GP meets both;
	// and the tight constraints force GP through many cycles (the 7.76 s
	// row) — the cyclic budget must actually be exercised.
	if !tab.Baseline.BWViolated || tab.Baseline.ResViolated {
		t.Fatalf("baseline shape wrong: %+v", tab.Baseline)
	}
	if tab.GP.Cycles < 4 {
		t.Fatalf("tight instance should need many cycles, used %d", tab.GP.Cycles)
	}
}

func TestTableFormat(t *testing.T) {
	tab, err := RunTable(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EXPERIMENT I", "METIS-like", "GP", "Bmax=16", "Rmax=165"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFormatAllAndRunAllTables(t *testing.T) {
	tables, err := RunAllTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	var buf bytes.Buffer
	if err := FormatAll(&buf, tables); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "MATCHES the paper") != 3 {
		t.Fatalf("not all tables match the paper:\n%s", buf.String())
	}
}

func TestFigureSetWritesPaperNumbering(t *testing.T) {
	tab, err := RunTable(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := FigureSet(tab, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 { // 4 figures x (dot + svg)
		t.Fatalf("files = %d, want 8", len(files))
	}
	// Experiment 2 → figures 6–9.
	for _, num := range []string{"fig06", "fig07", "fig08", "fig09"} {
		for _, ext := range []string{".dot", ".svg"} {
			path := filepath.Join(dir, num+ext)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing %s: %v", path, err)
			}
			if len(data) == 0 {
				t.Fatalf("%s is empty", path)
			}
		}
	}
	// The partitioned SVG must contain dashed (cut) edges.
	data, _ := os.ReadFile(filepath.Join(dir, "fig08.svg"))
	if !strings.Contains(string(data), "stroke-dasharray") {
		t.Fatal("partitioned figure lacks cut-edge markup")
	}
}

func TestRunTableErrors(t *testing.T) {
	if _, err := RunTable(0); err == nil {
		t.Fatal("table 0 accepted")
	}
	if _, err := RunTable(9); err == nil {
		t.Fatal("table 9 accepted")
	}
}

func TestScaleSweepSmall(t *testing.T) {
	pts, err := RunScaleSweep([]int{100, 200}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if !pt.GPFeasible {
			t.Fatalf("scale point %d infeasible", pt.Nodes)
		}
		if pt.GPCut <= 0 || pt.BaselineCut <= 0 {
			t.Fatalf("degenerate cuts at n=%d: %+v", pt.Nodes, pt)
		}
	}
	var buf bytes.Buffer
	if err := FormatScale(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S1: scalability sweep") {
		t.Fatal("scale format missing header")
	}
}

func TestSimCasesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite is slow")
	}
	cases, err := DefaultSimCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("cases = %d", len(cases))
	}
	// Run just the first case in tests; the full suite runs in the
	// harness and benches.
	cmpRes, err := RunSimCase(cases[0])
	if err != nil {
		t.Fatal(err)
	}
	if !cmpRes.GP.StaticFeasible {
		t.Fatal("GP mapping should be statically feasible on the validation workload")
	}
	// GP's mapping must never be dynamically worse than the baseline's
	// when the baseline violates constraints.
	if !cmpRes.Baseline.StaticFeasible && cmpRes.GP.Makespan > cmpRes.Baseline.Makespan {
		t.Fatalf("GP mapping slower than a constraint-violating baseline: %d vs %d",
			cmpRes.GP.Makespan, cmpRes.Baseline.Makespan)
	}
	var buf bytes.Buffer
	if err := FormatSims(&buf, []*SimComparison{cmpRes}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "V1") {
		t.Fatal("sim format missing header")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	rows, err := AblationCycles()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More cycles never hurt feasibility on the tight instance.
	if rows[len(rows)-1].Feasible == false {
		t.Fatal("full budget should reach feasibility on experiment 3")
	}
	var buf bytes.Buffer
	if err := FormatAblation(&buf, "A4: cycles", rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cycles-24") {
		t.Fatal("ablation format missing rows")
	}
}

func TestOptGapOnPaperInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("exact search is slow-ish")
	}
	rows, err := RunOptGap()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Proven {
			t.Fatalf("instance %d: exact search did not complete", r.Instance)
		}
		if r.GPCut < r.OptimalCut {
			t.Fatalf("instance %d: GP cut %d beats the proven optimum %d",
				r.Instance, r.GPCut, r.OptimalCut)
		}
		if r.Gap > 1.5 {
			t.Fatalf("instance %d: optimality gap %.3f unreasonably large", r.Instance, r.Gap)
		}
	}
	var buf bytes.Buffer
	if err := FormatOptGap(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E2") {
		t.Fatal("format missing header")
	}
}

func TestRelatedComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("related-work comparison is slow")
	}
	rows, err := RunRelated()
	if err != nil {
		t.Fatal(err)
	}
	// 4 workloads x 4 methods.
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	// On every paper instance, GP and the GA (constraint-aware methods)
	// must be feasible; the constraint-oblivious methods must not be.
	for _, r := range rows {
		if r.Workload == "random-400" {
			continue
		}
		switch r.Method {
		case "GP", "genetic":
			if !r.Feasible {
				t.Fatalf("%s on %s infeasible", r.Method, r.Workload)
			}
		case "METIS-like", "spectral":
			if r.Feasible {
				t.Fatalf("%s on %s unexpectedly feasible (constraints should bind)", r.Method, r.Workload)
			}
		}
	}
	var buf bytes.Buffer
	if err := FormatRelated(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E3") {
		t.Fatal("format missing header")
	}
}

func TestMultiResStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-resource study is slow")
	}
	rows, err := RunMultiRes()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	scalar, vector := rows[0], rows[1]
	if scalar.Config != "scalar-only" || vector.Config != "vector" {
		t.Fatalf("row order wrong: %+v", rows)
	}
	// The headline: the scalar model misses a non-LUT bound; the vector
	// extension meets all kinds.
	if scalar.Feasible {
		t.Fatal("scalar-only run should violate a non-LUT resource on this workload")
	}
	if !vector.Feasible {
		t.Fatalf("vector run should meet every kind: %+v", vector)
	}
	var buf bytes.Buffer
	if err := FormatMultiRes(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "M1") {
		t.Fatal("format missing header")
	}
}

func TestVarianceStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("variance study is slow")
	}
	rows, err := RunVariance(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Seeds != 5 {
			t.Fatalf("seeds = %d", r.Seeds)
		}
		if r.FeasibleRuns > 0 && (r.MinCut > r.MedianCut || r.MedianCut > r.MaxCut) {
			t.Fatalf("instance %d: cut ordering wrong: %+v", r.Instance, r)
		}
		// Instances 1 and 2 are loose: every seed should succeed.
		if r.Instance <= 2 && r.FeasibleRuns != r.Seeds {
			t.Fatalf("instance %d: only %d/%d seeds feasible", r.Instance, r.FeasibleRuns, r.Seeds)
		}
	}
	var buf bytes.Buffer
	if err := FormatVariance(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E4") {
		t.Fatal("format missing header")
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Tables I–III", "V1:", "S1:", "E2:", "E3:", "E4:", "M1:",
		"A1:", "A4:", "A6:", "MATCHES the paper",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestSummarizeDetectsMismatch(t *testing.T) {
	// A fabricated table whose baseline meets everything cannot match the
	// paper's published shape for experiment 1 (baseline violates both).
	tab, err := RunTable(1)
	if err != nil {
		t.Fatal(err)
	}
	forged := *tab
	forged.Baseline.BWViolated = false
	forged.Baseline.ResViolated = false
	s := Summarize(&forged)
	if s.Agrees {
		t.Fatal("forged outcome should disagree with the paper")
	}
	if !strings.Contains(s.ShapeObserved, "baseline{bw:false,res:false}") {
		t.Fatalf("observed shape = %q", s.ShapeObserved)
	}
	var buf bytes.Buffer
	if err := FormatAll(&buf, []*Table{&forged}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DIFFERS from the paper") {
		t.Fatal("mismatch not reported in format")
	}
}

// TestAblationPolishRows pins A5: tabu and anneal both lower GP's cut on
// the ablation workload and keep it feasible.
func TestAblationPolishRows(t *testing.T) {
	rows, err := AblationPolish()
	if err != nil {
		t.Fatal(err)
	}
	want := []AblationRow{
		{Config: "polish-none", Cut: 4637, Feasible: true, Cycles: 1},
		{Config: "polish-tabu", Cut: 3968, Feasible: true, Cycles: 1},
		{Config: "polish-anneal", Cut: 3943, Feasible: true, Cycles: 1},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		r.Time = 0
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestAblationPolishInvariants checks every A5 polisher on GP's output:
// the assignment stays valid, goodness never gets worse, and the
// reported feasibility matches a fresh evaluation.
func TestAblationPolishInvariants(t *testing.T) {
	for _, seed := range []int64{20, 21, 22} {
		g, err := gen.RandomConnected(80, 200,
			gen.WeightRange{Lo: 5, Hi: 50}, gen.WeightRange{Lo: 1, Hi: 10}, newRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		k := 4
		c := metrics.Constraints{
			Bmax: 2 * g.TotalEdgeWeight() / int64(k),
			Rmax: g.TotalNodeWeight()/3 + 20,
		}
		res, err := core.Partition(g, core.Options{K: k, Constraints: c, Seed: 7, MaxCycles: 2})
		if err != nil {
			t.Fatal(err)
		}
		before := metrics.Goodness(g, res.Parts, k, c)
		for _, p := range polishers {
			parts := append([]int(nil), res.Parts...)
			feasible := p.run(g, parts, k, c)
			if err := metrics.Validate(g, parts, k); err != nil {
				t.Fatalf("seed %d %s: %v", seed, p.name, err)
			}
			if after := metrics.Goodness(g, parts, k, c); after > before {
				t.Fatalf("seed %d %s worsened goodness: %v > %v", seed, p.name, after, before)
			}
			if feasible != metrics.Feasible(g, parts, k, c) {
				t.Fatalf("seed %d %s: feasibility flag stale", seed, p.name)
			}
		}
	}
}
