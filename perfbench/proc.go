package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"ppnpart/internal/arena"
	"ppnpart/internal/pool"
)

// counters snapshots the process-wide counters a window's deltas come
// from: Go heap allocation and GC pauses, the shared solver pool and the
// arena workspace checkouts.
type counters struct {
	totalAlloc, pauseNs  uint64
	poolTasks, poolRuns  int64
	arenaGets, arenaNews int64
	steal                int64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := pool.Default().Stats()
	gets, news, _ := arena.Stats()
	return counters{
		totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs,
		poolTasks: st.Tasks, poolRuns: st.Runs,
		arenaGets: gets, arenaNews: news,
		steal: stealTicks(),
	}
}

// add accumulates the deltas between two snapshots.
func (c *counters) add(before, after counters) {
	c.totalAlloc += after.totalAlloc - before.totalAlloc
	c.pauseNs += after.pauseNs - before.pauseNs
	c.poolTasks += after.poolTasks - before.poolTasks
	c.poolRuns += after.poolRuns - before.poolRuns
	c.arenaGets += after.arenaGets - before.arenaGets
	c.arenaNews += after.arenaNews - before.arenaNews
	c.steal += after.steal - before.steal
}

// windowMetrics fills the figures every workload derives from the counter
// deltas across its measured window of ops operations.
func windowMetrics(m map[string]float64, before, after counters, ops int) {
	n := float64(ops)
	m["alloc_mb_per_op"] = ratio(float64(after.totalAlloc-before.totalAlloc)/(1<<20), n)
	m["runtime.gc_pause_s"] = ratio(float64(after.pauseNs-before.pauseNs)/1e9, n)
	m["pool.tasks_per_run"] = ratio(float64(after.poolTasks-before.poolTasks), float64(after.poolRuns-before.poolRuns))
	m["arena.cold_share"] = ratio(float64(after.arenaNews-before.arenaNews), float64(after.arenaGets-before.arenaGets))
}

// stealShare is the share of the machine's CPU time the host stole
// between two snapshots window seconds apart (USER_HZ is 100 on Linux).
func stealShare(before, after counters, window float64) float64 {
	return ratio(float64(after.steal-before.steal)/100, window*float64(runtime.NumCPU()))
}

// stealTicks reads the machine's cumulative CPU steal time (clock ticks
// the hypervisor gave to other guests) from /proc/stat; 0 when absent.
// A run records the delta as a diagnostic: wall-clock figures taken
// while the host steals CPU are not comparable to quiet ones.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}
