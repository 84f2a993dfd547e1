// Command ramsisbench is the repository's benchmark. It drives the RAMSIS
// serving system through its public functions from one process — one
// open-loop generator goroutine and at most one collector — and prints
// every end-to-end metric by name, unit and sample count, then one JSON
// result line.
//
//	bash ramsisbench/run.sh --workload image-live --seed 1 --seconds 25 --trace 0
//	bash ramsisbench/run.sh --workload all --seed 1 --seconds 25 --trace 0
//
// Workloads: image-live (the live single-tenant plane with adaptation),
// gateway-fast (the sharded multi-tenant plane at compressed time) and
// llm-burst (token-level continuous batching in the simulator). With
// --trace 1 the run is made twice, untraced and traced: the traced pass
// records spans around every call the benchmark makes into the program and
// around the hooks the program accepts (selector, balancer, monitor, LLM
// model selector), writes them as JSONL under .bench_build/traces, prints
// each layer's self time along the blocking path, and reports the
// per-layer metrics plus the tracing overhead. See METRICS.md for which
// end-to-end metric each per-layer metric should move.
//
// A run whose outputs fail a check prints the failures and a result with
// "correct": false and no metrics, and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

var workloads = map[string]func(options, *tracer) (*report, error){
	"image-live":   runImage,
	"gateway-fast": runGateway,
	"llm-burst":    runLLM,
}

var workloadOrder = []string{"image-live", "gateway-fast", "llm-burst"}

func main() {
	workload := flag.String("workload", "", "image-live, gateway-fast, llm-burst, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1: also run traced and report the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "ramsisbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "ramsisbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	ok := true
	var last jsonResult
	all := jsonResult{Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		res, err := runOne(name, options{seed: *seed, seconds: *seconds, out: os.Stdout}, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ramsisbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		ok = ok && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		last = res
	}
	if len(names) > 1 {
		// One line for the whole set, correct only if every workload was;
		// each workload's numbers are in its own table above.
		all.Correct = ok
		last = all
	}
	if err := last.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ramsisbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload untraced and, when traced, once more with
// spans, and prints its tables and failed checks.
func runOne(name string, o options, traced bool) (jsonResult, error) {
	run := workloads[name]
	fmt.Fprintf(o.out, "== %s (seed %d, %d s)\n", name, o.seed, o.seconds)
	r, err := run(o, nil)
	if err != nil {
		return jsonResult{}, err
	}
	r.printTable(o.out, "end-to-end", append(append([]metricDef(nil), endToEnd...), workloadOnly...))
	r.printTable(o.out, "host and generator", hostAndGenerator)
	if traced {
		tr := newTracer()
		o.oneSetup = true
		rt, err := run(o, tr)
		if err != nil {
			return jsonResult{}, err
		}
		for _, c := range rt.checks {
			r.fail("traced pass: %s", c)
		}
		overhead(rt, r)
		spans := tr.snapshot()
		printSelfTimes(o.out, spans)
		if err := saveSpans(name, o.seed, spans); err != nil {
			return jsonResult{}, err
		}
		rt.printTable(o.out, "per-layer", perLayer)
		rt.checks = r.checks
		r = rt
	}
	res := r.result(traced)
	for _, c := range r.checks {
		fmt.Fprintf(o.out, "CHECK FAILED: %s\n", c)
	}
	return res, nil
}

// overhead records the traced pass's end-to-end numbers minus the
// untraced pass's.
func overhead(traced, plain *report) {
	for _, p := range []struct{ layer, e2e string }{
		{"bench.trace_overhead_cpu_us_per_query", "cpu_us_per_query"},
		{"bench.trace_overhead_latency_p50_ms", "latency_p50_ms"},
	} {
		a, b := traced.metrics[p.e2e], plain.metrics[p.e2e]
		if a.ok && b.ok {
			traced.set(p.layer, measured(a.v-b.v, 0))
		}
	}
}

// saveSpans writes the traced pass's spans as JSONL inside the checkout.
func saveSpans(workload string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", path)
	return nil
}
