package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics: every workload reports each of them, so
// each is defined on all three planes and is never zero (BENCHMARK.json's
// end_to_end list). ok_share is 1 − error_share, which is zero on a
// healthy run and so cannot carry a relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slo_attainment", "ratio"},
	{"accuracy", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_share", "ratio"},
	{"cpu_us_per_query", "us"},
	{"peak_rss_mb", "MiB"},
}

// workloadOnly are the end-to-end metrics that exist on some workloads
// only; they print in every run's table and ride in the traced run's
// per-layer set, ungated.
var workloadOnly = []metricDef{
	{"drift_to_swap_s", "s"},
	{"max_qps", "1/s"},
	{"shed_share", "ratio"},
	{"error_share", "ratio"},
	{"ttft_p50_ms", "ms"},
	{"ttft_p99_ms", "ms"},
	{"tbt_p99_ms", "ms"},
	{"tokens_per_s", "1/s"},
}

// perLayer is BENCHMARK.json's per_layer list, in order.
var perLayer = append([]metricDef{
	{"core.generate_s", "s"},
	{"core.transitions_s", "s"},
	{"mdp.compile_s", "s"},
	{"mdp.solve_s", "s"},
	{"mdp.solve_iterations", "count"},
	{"core.expectations_s", "s"},
	{"core.states", "count"},
	{"core.transition_count", "count"},
	{"core.warm_transitions_s", "s"},
	{"mdp.warm_solve_s", "s"},
	{"mdp.warm_solve_iterations", "count"},
	{"core.warm_expectations_s", "s"},
	{"core.llm_generate_s", "s"},
	{"adapt.resolves", "count"},
	{"adapt.cache_hits", "count"},
	{"adapt.warm_starts", "count"},
	{"adapt.resolve_errors", "count"},
	{"adapt.observe_ns", "ns"},
	{"adapt.stale_decisions", "count"},
	{"core.select_ns", "ns"},
	{"core.select_batch_mean", "count"},
	{"core.select_accuracy_mean", "ratio"},
	{"monitor.rate_error", "ratio"},
	{"lb.pick_ns", "ns"},
	{"lb.outstanding_spread", "count"},
	{"serve.enqueue_us", "us"},
	{"serve.stage.enqueue_p50_ms", "ms"},
	{"serve.stage.enqueue_p99_ms", "ms"},
	{"serve.stage.pick_p50_ms", "ms"},
	{"serve.stage.pick_p99_ms", "ms"},
	{"serve.stage.batch_wait_p50_ms", "ms"},
	{"serve.stage.batch_wait_p99_ms", "ms"},
	{"serve.stage.dispatch_p50_ms", "ms"},
	{"serve.stage.dispatch_p99_ms", "ms"},
	{"serve.stage.inference_p50_ms", "ms"},
	{"serve.stage.inference_p99_ms", "ms"},
	{"serve.stage.respond_p50_ms", "ms"},
	{"serve.stage.respond_p99_ms", "ms"},
	{"serve.dispatch_overhead_p50_ms", "ms"},
	{"serve.dispatch_overhead_p99_ms", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.failed_dispatches", "count"},
	{"tenant.route_p50_us", "us"},
	{"tenant.route_p99_us", "us"},
	{"admit.admitted.interactive", "count"},
	{"admit.shed.interactive", "count"},
	{"admit.borrowed.interactive", "count"},
	{"admit.admitted.batch", "count"},
	{"admit.shed.batch", "count"},
	{"admit.borrowed.batch", "count"},
	{"tenant.shard_depth_spread", "count"},
	{"sim.llm_run_s", "s"},
	{"sim.llm_steps", "count"},
	{"sim.llm_tokens_per_step", "count"},
	{"sim.llm_switches", "count"},
	{"sim.llm_peak_kv", "ratio"},
	{"sim.llm_rejected", "count"},
	{"llm.select_ns", "ns"},
	{"llm.select_calls", "count"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_pause_ms", "ms"},
}, append(append(hostAndGenerator,
	metricDef{"bench.trace_overhead_cpu_us_per_query", "us"},
	metricDef{"bench.trace_overhead_latency_p50_ms", "ms"}),
	workloadOnly...)...)

// hostAndGenerator print beside every run's end-to-end table: inflation
// from a slow host timer or a late generator shows as such.
var hostAndGenerator = []metricDef{
	{"host.sleep_overshoot_p50_us", "us"},
	{"host.sleep_overshoot_p99_us", "us"},
	{"bench.gen_late_p99_ms", "ms"},
}

// value is one measured number with the samples behind it.
type value struct {
	v    float64
	n    int    // samples behind the value; 0 for a single measurement
	note string // its source when the program reported it, or why it is missing
	ok   bool
}

func measured(v float64, n int) value { return value{v: v, n: n, ok: true} }

func programReported(v float64, n int) value {
	return value{v: v, n: n, ok: true, note: "program-reported"}
}

func missing(why string) value { return value{note: why} }

// report is one workload run's outcome.
type report struct {
	workload          string
	attempted, failed int
	checks            []string // failed output checks
	metrics           map[string]value
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]value{}}
}

func (r *report) set(name string, v value) { r.metrics[name] = v }

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// setTail records the p-th percentile of xs under name, or why it is
// unsupported (too few samples beyond it).
func (r *report) setTail(name string, xs []float64, p, scale float64) {
	v, beyond, ok := tail(xs, p)
	if !ok {
		r.set(name, missing(fmt.Sprintf("only %d of %d samples beyond p%g", beyond, len(xs), p)))
		return
	}
	r.set(name, measured(v*scale, len(xs)))
}

// printTable prints every metric in defs with its unit and sample count.
func (r *report) printTable(w io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(w, "%s (%s)\n", title, r.workload)
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-38s %14s %-6s  not exercised by this workload\n", d.name, "n/a", d.unit)
		case !v.ok:
			fmt.Fprintf(w, "  %-38s %14s %-6s  %s\n", d.name, "n/a", d.unit, v.note)
		default:
			n := ""
			if v.n > 0 {
				n = fmt.Sprintf("n=%d", v.n)
			}
			fmt.Fprintf(w, "  %-38s %14.6g %-6s  %-9s %s\n", d.name, v.v, d.unit, n, v.note)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the final line: the gated end-to-end metrics, or with
// traced set every per-layer metric. A metric a workload does not exercise
// reads 0 in the per-layer set (its layer did no work). A failed check, or
// a gated metric that could not be measured, makes the run incorrect and
// drops every number.
func (r *report) result(traced bool) jsonResult {
	out := jsonResult{Correct: len(r.checks) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		switch {
		case !traced && (!ok || !v.ok || !(v.v > 0) || math.IsInf(v.v, 0)):
			out.Correct = false
			r.fail("end-to-end metric %s has no positive measurement (%v) %s", d.name, v.v, v.note)
		case !ok || !v.ok || math.IsNaN(v.v) || math.IsInf(v.v, 0):
			out.Metrics[d.name] = jsonMetric{0, d.unit}
		default:
			out.Metrics[d.name] = jsonMetric{v.v, d.unit}
		}
	}
	if !out.Correct {
		out.Metrics = map[string]jsonMetric{}
	}
	return out
}

func (j jsonResult) write(w io.Writer) error {
	b, err := json.Marshal(j)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
