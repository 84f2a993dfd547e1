package main

import (
	"runtime"
	"syscall"
	"time"
)

// sleepOvershoot measures how late time.Sleep wakes on the host: n sleeps
// of d each, returning the overshoot of every one in microseconds. The
// workers' simulated inference is a time.Sleep, so a noisy host inflates
// the serving plane's latencies by this much (times TimeScale), and the
// benchmark records it beside its results to attribute that inflation to
// the host rather than to the program.
func sleepOvershoot(n int, d time.Duration) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		time.Sleep(d)
		out[i] = float64(time.Since(t0)-d) / float64(time.Microsecond)
	}
	return out
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu     time.Duration // user + system CPU time
	maxRSS  int64         // peak resident set, KiB
	mallocs uint64
	pauseNs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:  ru.Maxrss,
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
	}
}

// setProcess records the measured phase's per-query process costs from
// the usage snapshots taken around it, and the run's peak resident set.
func setProcess(r *report, before, after usage, queries int) {
	q := float64(max(queries, 1))
	r.set("cpu_us_per_query", measured(float64(after.cpu-before.cpu)/float64(time.Microsecond)/q, queries))
	r.set("runtime.allocs_per_query", measured(float64(after.mallocs-before.mallocs)/q, queries))
	r.set("runtime.gc_pause_ms", measured(float64(after.pauseNs-before.pauseNs)/1e6, 0))
	r.set("peak_rss_mb", measured(float64(readUsage().maxRSS)/1024, 0))
}

// collect runs a garbage collection before each cold set-up and before the
// measured phase, so each starts from a collected heap and the run's peak
// resident set does not depend on when the collector last ran over an
// earlier phase's garbage.
func collect() { runtime.GC() }
