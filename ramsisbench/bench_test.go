package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/profile"
	"ramsis/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{seq(1000), 99, 990, 10, true},
		{seq(999), 99, 990, 9, false},
		{seq(100), 50, 50, 50, true},
		{seq(20), 50, 10, 10, true},
		{seq(19), 50, 10, 9, false},
	} {
		v, beyond, ok := tail(tc.xs, tc.p)
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tail(n=%d, p%g) = %v, %d beyond, ok %v; want %v, %d, %v",
				len(tc.xs), tc.p, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
	// Ties at the top leave nothing strictly beyond the percentile.
	xs := seq(1000)
	for i := 0; i < 30; i++ {
		xs[i] = 2000
	}
	if _, beyond, ok := tail(xs, 99); ok || beyond != 0 {
		t.Errorf("tied tail: %d beyond, ok %v; want 0, false", beyond, ok)
	}
	if _, _, ok := tail(nil, 50); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestMaxQPSStopsAtFirstFailingRung(t *testing.T) {
	flat := []float64{4, 5, 4, 5, 4, 5, 4, 5}
	growing := []float64{4, 5, 8, 12, 16, 20, 24, 28}
	rung := func(q, attain float64, depths []float64) rungStat {
		return rungStat{offered: q, attain: attain, depths: depths}
	}
	for _, tc := range []struct {
		name  string
		rungs []rungStat
		want  float64
	}{
		{"all pass", []rungStat{rung(40, 1, flat), rung(80, 0.99, flat), rung(120, 0.96, flat)}, 120},
		{"attainment miss", []rungStat{rung(40, 1, flat), rung(80, 0.94, flat), rung(120, 1, flat)}, 40},
		{"backlog grows", []rungStat{rung(40, 1, flat), rung(80, 1, growing), rung(120, 1, flat)}, 40},
		{"first rung fails", []rungStat{rung(40, 0.5, flat), rung(80, 1, flat)}, 0},
		{"too few depth samples to judge growth", []rungStat{rung(40, 1, []float64{1, 50})}, 40},
	} {
		if got := maxQPS(tc.rungs, 0.95, 4); got != tc.want {
			t.Errorf("%s: maxQPS = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDriftClockFromStatsDeltas(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var c driftClock
	c.selection(adapt.Stats{}, at(0), at(1)) // nothing happened
	// A selection confirms drift and misses the cache: a background
	// re-solve starts.
	c.selection(adapt.Stats{CacheMisses: 1, Resolves: 1}, at(100), at(101))
	c.selection(adapt.Stats{CacheMisses: 1, Resolves: 1}, at(300), at(301)) // stale
	c.poll(adapt.Stats{CacheMisses: 1, Resolves: 1}, at(500))
	c.poll(adapt.Stats{CacheMisses: 1, Resolves: 1, Swaps: 1}, at(900)) // swap seen
	c.selection(adapt.Stats{CacheMisses: 1, Resolves: 1, Swaps: 1}, at(950), at(951))
	// A cache hit swaps inside the confirming call.
	c.selection(adapt.Stats{CacheMisses: 1, CacheHits: 1, Resolves: 1, Swaps: 2}, at(2000), at(2001))

	secs, hits := c.resolveSeconds()
	if len(secs) != 1 || secs[0] != 0.8 {
		t.Errorf("re-solve drift-to-swap = %v, want [0.8]", secs)
	}
	if hits != 1 {
		t.Errorf("cache-hit swaps = %d, want 1", hits)
	}
	if c.stale != 1 {
		t.Errorf("stale selections = %d, want 1", c.stale)
	}
}

func TestSelfTimesAlongBlockingPath(t *testing.T) {
	ms := func(v int) int64 { return int64(v) * int64(time.Millisecond) }
	spans := []span{
		{Name: "request", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "gen.late", Parent: 0, Start: ms(0), End: ms(10)},
		{Name: "serve.enqueue", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "lb.pick", Parent: 2, Start: ms(12), End: ms(15)},
		{Name: "monitor.observe", Parent: 2, Start: ms(14), End: ms(18)}, // overlaps the pick
		{Name: "serve.inflight", Parent: 0, Start: ms(40), End: ms(100)},
		{Name: "request", Parent: -1, Start: ms(200), End: ms(220)},
		{Name: "serve.inflight", Parent: 6, Start: ms(200), End: ms(220)},
		{Name: "core.select", Parent: -1, Start: ms(50), End: ms(51)},
	}
	self, roots := blockingSelfTimes(spans)
	want := map[string]map[string]time.Duration{
		"request": {
			"request":         10 * time.Millisecond, // 30..40 is covered by no child
			"gen.late":        10 * time.Millisecond,
			"serve.enqueue":   14 * time.Millisecond, // 20 ms minus the 12..18 union
			"lb.pick":         3 * time.Millisecond,
			"monitor.observe": 4 * time.Millisecond,
			"serve.inflight":  80 * time.Millisecond,
		},
		"core.select": {"core.select": time.Millisecond},
	}
	for kind, layers := range want {
		for name, d := range layers {
			if got := self[kind][name]; got != d {
				t.Errorf("self[%s][%s] = %v, want %v", kind, name, got, d)
			}
		}
	}
	if roots["request"] != 2 || roots["core.select"] != 1 {
		t.Errorf("roots = %v", roots)
	}
}

// TestTracedSelectorMatchesProgram holds the traced run's composed
// selector to serve.AdaptiveSelector's choices.
func TestTracedSelectorMatchesProgram(t *testing.T) {
	models, err := profile.SetForTask("image")
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{Models: models, SLO: 0.15, Workers: 4, Arrival: dist.NewPoisson(1), D: 20,
		Solver: core.SolvePrioritized}
	cfg := base
	cfg.Arrival = dist.NewPoisson(60)
	pol, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newAdapter := func() *adapt.Adapter {
		a, err := adapt.New(adapt.Config{Base: base}, pol)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	program := serve.AdaptiveSelector(newAdapter())
	ours := tracedSelector(newAdapter(), models, newTracer(), &selectStats{})
	for n := 1; n <= 40; n += 3 {
		for slack := -0.01; slack <= 0.16; slack += 0.013 {
			m1, b1 := program(float64(n), 60, n, slack)
			m2, b2 := ours(float64(n), 60, n, slack)
			if m1 != m2 || b1 != b2 {
				t.Fatalf("n=%d slack=%.3f: program %s×%d, traced %s×%d", n, slack, m1, b1, m2, b2)
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloadOrder[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] here",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	rates := [][]float64{{10, 5}, {20, 0}}
	w1, m1 := poissonSteps(7, time.Second, 2*time.Second, rates, 2)
	w2, m2 := poissonSteps(7, time.Second, 2*time.Second, rates, 2)
	if len(w1) == 0 || len(m1) == 0 || len(w1) != len(w2) || len(m1) != len(m2) {
		t.Fatalf("arrival counts %d+%d vs %d+%d", len(w1), len(m1), len(w2), len(m2))
	}
	for _, ph := range [][2][]arrival{{w1, w2}, {m1, m2}} {
		a, b := ph[0], ph[1]
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
			}
			if i > 0 && a[i].at < a[i-1].at {
				t.Fatalf("arrivals out of order at %d", i)
			}
		}
	}
	if last := w1[len(w1)-1]; last.step != -1 || last.at >= time.Second {
		t.Errorf("warm-up ends with %+v", last)
	}
	if first := m1[0]; first.step != 0 || first.at < 0 || first.id != len(w1) {
		t.Errorf("measured phase starts with %+v", first)
	}
	if _, c := poissonSteps(8, time.Second, 2*time.Second, rates, 2); len(c) == len(m1) && c[0] == m1[0] {
		t.Error("a different seed gave the same arrivals")
	}
	q1, q2 := llmQueries(3), llmQueries(3)
	if len(q1) != len(q2) || q1[len(q1)/2] != q2[len(q2)/2] {
		t.Error("llm trace differs for one seed")
	}
}
