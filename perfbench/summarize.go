package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// summarize reads result lines (one benchmark run each, other lines are
// skipped) and prints, per metric, the run count, median, quartiles and
// the spread the acceptance check uses: (Q3-Q1)/median. It also reports
// whether every run was correct.
func summarize(in io.Reader, out io.Writer) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	runs, bad := 0, 0
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Metrics == nil {
			continue
		}
		runs++
		if !line.Correct || line.Failed > 0 {
			bad++
		}
		for name, m := range line.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read results: %w", err)
	}
	if runs == 0 {
		return fmt.Errorf("no result lines on input")
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%d runs, %d with failed operations\n", runs, bad)
	fmt.Fprintf(out, "%-28s %4s %14s %14s %14s %8s %s\n", "metric", "n", "q1", "median", "q3", "spread", "unit")
	for _, n := range names {
		q1, q2, q3 := quartiles(vals[n])
		fmt.Fprintf(out, "%-28s %4d %14.6g %14.6g %14.6g %8.4f %s\n", n, len(vals[n]), q1, q2, q3, spread(vals[n]), units[n])
	}
	return nil
}
