package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/llm"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

// llm-burst is token-level continuous batching in sim.LLMEngine: the
// builtin chat set under a core.GenerateLLM token policy, general-class
// Poisson load at ~4 QPS per worker with recurring long-prefill codegen
// bursts, so model switches and KV pressure occur. Its modeled outputs are
// a pure function of the seed; only the wall time of Run varies.
const (
	llmSLO     = 8.0
	llmWorkers = 2
	llmRate    = 8.0    // aggregate QPS
	llmTrace   = 4800.0 // modeled seconds per trace
	// Every llmBurstEvery seconds, llmBurstSize codegen-style queries of
	// 4000 prompt and 150 output tokens land 0.1 s apart: the queue grows
	// by a dozen while the outstanding token load jumps by ~50k.
	llmBurstEvery = 60.0
	llmBurstSize  = 12
	llmSetups     = 40
)

// llmQueries builds the seed's trace.
func llmQueries(seed int64) []sim.TokenQuery {
	cls := llm.GeneralClass()
	rng := rand.New(rand.NewSource(seed))
	var arrivals []float64
	for t := rng.ExpFloat64() / llmRate; t < llmTrace; t += rng.ExpFloat64() / llmRate {
		arrivals = append(arrivals, t)
	}
	events := trace.AnnotateTokens(arrivals, seed+1, cls.In, cls.Out)
	qs := make([]sim.TokenQuery, 0, len(events)+int(llmTrace/llmBurstEvery)*llmBurstSize)
	for i, ev := range events {
		qs = append(qs, sim.TokenQuery{ID: i + 1, Arrival: ev.T, Prefill: ev.Prefill, Decode: ev.Decode})
	}
	for b := 0.0; b < llmTrace; b += llmBurstEvery {
		start := b + 20 + 20*rng.Float64()
		for i := 0; i < llmBurstSize; i++ {
			qs = append(qs, sim.TokenQuery{ID: len(qs) + 1, Arrival: start + 0.1*float64(i),
				Prefill: 4000, Decode: 150})
		}
	}
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Arrival < qs[j].Arrival })
	return qs
}

// fingerprint digests a replay's metrics apart from its latency samples
// and the percentiles taken from them, which depend on whether the replay
// collected samples: served, violated and dropped counts, the accuracy sum,
// steps, switches, scheduled tokens, peak KV and the per-model counts.
func fingerprint(m sim.LLMMetrics) uint64 {
	m.Latencies, m.TTFTs, m.TBTs = nil, nil, nil
	m.LatencyP50, m.LatencyP95, m.LatencyP99 = 0, 0, 0
	m.TTFTP50, m.TTFTP95, m.TTFTP99 = 0, 0, 0
	m.TBTP50, m.TBTP95, m.TBTP99 = 0, 0, 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", m) // map keys print sorted
	return h.Sum64()
}

// setLatencies records the modeled latency percentiles of a replay that
// collected its samples.
func setLatencies(r *report, m sim.LLMMetrics) {
	r.set("latency_p50_ms", measured(median(m.Latencies)*1000, len(m.Latencies)))
	r.setTail("latency_p99_ms", m.Latencies, 99, 1000)
	r.set("ttft_p50_ms", measured(median(m.TTFTs)*1000, len(m.TTFTs)))
	r.setTail("ttft_p99_ms", m.TTFTs, 99, 1000)
	r.setTail("tbt_p99_ms", m.TBTs, 99, 1000)
}

// timedModelSelector times every step-boundary model selection.
type timedModelSelector struct {
	sim.ModelSelector
	tr     *tracer
	parent int // the traced Run's span; -1 records nothing
	mu     sync.Mutex
	ns     []float64
}

func (s *timedModelSelector) SelectModel(queued, outstanding int, kv, slack float64) int {
	t0 := time.Now()
	m := s.ModelSelector.SelectModel(queued, outstanding, kv, slack)
	t1 := time.Now()
	if s.parent >= 0 {
		s.tr.add("llm.select", -1, s.parent, t0, t1)
	}
	s.mu.Lock()
	s.ns = append(s.ns, float64(t1.Sub(t0)))
	s.mu.Unlock()
	return m
}

func setupLLM() (*core.LLMPolicy, sim.ModelSelector, time.Duration, time.Duration, error) {
	t0 := time.Now()
	models := llm.BuiltinSet()
	cls := llm.GeneralClass()
	pol, err := core.GenerateLLM(core.LLMConfig{Models: models, SLO: llmSLO, Workers: llmWorkers,
		Rate: llmRate, In: cls.In, Out: cls.Out})
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("generate token policy: %w", err)
	}
	gen := time.Since(t0)
	sel, err := sim.NewLLMPolicySelector(pol, models)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return pol, sel, time.Since(t0), gen, nil
}

func runLLM(o options, tr *tracer) (*report, error) {
	r := newReport("llm-burst")
	cal := sleepOvershoot(calibrationSleeps, calibrationSleep)
	var setupSecs, gens []float64
	var pol *core.LLMPolicy
	var sel sim.ModelSelector
	// Generating the token policy takes tens of milliseconds, so more
	// set-ups go into the median than on the other workloads.
	for i := 0; i < setups(o, llmSetups); i++ {
		var d, g time.Duration
		var err error
		collect()
		pol, sel, d, g, err = setupLLM()
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, d.Seconds())
		gens = append(gens, g.Seconds())
	}
	r.set("setup_s", measured(median(setupSecs), len(setupSecs)))
	r.set("core.llm_generate_s", measured(median(gens), len(gens)))
	fmt.Fprintf(o.out, "token policy: %d states, %d transitions, %d iterations (build %v, solve %v, program-reported)\n",
		pol.States, pol.Transitions, pol.Iterations, pol.BuildTime, pol.SolveTime)

	qs := llmQueries(o.seed)
	// The engine clamps each query to at least one prompt and one output
	// token, and the forward pass that finishes a prompt emits its first
	// output token, so a served query schedules Prefill prompt tokens and
	// Decode−1 decode steps.
	var wantPrefill, wantDecode int64
	for _, q := range qs {
		wantPrefill += int64(max(q.Prefill, 1))
		wantDecode += int64(max(q.Decode, 1) - 1)
	}
	timed := &timedModelSelector{ModelSelector: sel, tr: tr, parent: -1}
	models := llm.BuiltinSet()
	// The first replay's metrics are the run's: it alone collects every
	// latency sample, for exact percentiles, and its samples are dropped once
	// those are taken. Every later replay must reproduce its counts exactly,
	// and the later replays, which run as the engine does by default, are
	// the ones timed: only their Run calls count toward the wall time, the
	// token rate and the process costs.
	var m sim.LLMMetrics
	var first uint64
	var runSecs, rates []float64
	var spent usage // summed over the replays
	collect()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		e := sim.NewLLMEngine(models, llmSLO, llmWorkers, sel)
		e.CollectLatencies = rep == 0
		if tr != nil && rep == 0 {
			e.Selector = timed
		}
		u0 := readUsage()
		t0 := time.Now()
		run := tr.open("llm.run", int64(rep), -1, t0)
		timed.parent = run
		got := e.Run(qs)
		t1 := time.Now()
		u1 := readUsage()
		tr.close(run, t1)
		timed.parent = -1
		if rep > 0 {
			spent.cpu += u1.cpu - u0.cpu
			spent.mallocs += u1.mallocs - u0.mallocs
			spent.pauseNs += u1.pauseNs - u0.pauseNs
			runSecs = append(runSecs, t1.Sub(t0).Seconds())
			rates = append(rates, float64(got.PrefillTokens+got.DecodeTokens)/t1.Sub(t0).Seconds())
		}
		if rep == 0 {
			m = got
			setLatencies(r, m)
			m.Latencies, m.TTFTs, m.TBTs = nil, nil, nil
			first = fingerprint(m)
			collect()
		} else if fingerprint(got) != first {
			r.fail("replay %d of the same trace gave different metrics than replay 0", rep)
		}
	}
	reps := len(runSecs)

	if m.Dropped == 0 && (m.PrefillTokens != wantPrefill || m.DecodeTokens != wantDecode) {
		r.fail("scheduled %d prefill + %d decode tokens, the served queries hold %d + %d",
			m.PrefillTokens, m.DecodeTokens, wantPrefill, wantDecode)
	}
	if m.Served+m.Dropped != len(qs) {
		r.fail("served %d + dropped %d queries, sent %d", m.Served, m.Dropped, len(qs))
	}
	for name := range m.ModelCounts {
		if _, ok := models.ByName(name); !ok {
			r.fail("queries served by unknown model %q", name)
		}
	}
	sat := m.Served - m.Violations
	r.set("slo_attainment", measured(float64(sat)/float64(len(qs)), len(qs)))
	if sat > 0 {
		r.set("accuracy", measured(m.SatAccSum/float64(sat), sat))
	} else {
		r.set("accuracy", missing("no query met its SLO"))
	}
	r.set("tokens_per_s", measured(median(rates), reps))
	r.set("ok_share", measured(1-float64(m.Dropped)/float64(len(qs)), len(qs)))
	r.set("error_share", measured(float64(m.Dropped)/float64(len(qs)), len(qs)))
	setProcess(r, usage{}, spent, len(qs)*reps)
	setHost(r, cal)
	r.set("bench.gen_late_p99_ms", missing("no wall-clock generator: the simulator replays modeled arrivals"))

	r.set("sim.llm_run_s", measured(median(runSecs), reps))
	r.set("sim.llm_steps", measured(float64(m.Steps), 0))
	r.set("sim.llm_tokens_per_step", measured(float64(m.PrefillTokens+m.DecodeTokens)/float64(max(m.Steps, 1)), m.Steps))
	r.set("sim.llm_switches", measured(float64(m.ModelSwitches), 0))
	r.set("sim.llm_peak_kv", measured(m.PeakKVUsage, 0))
	r.set("sim.llm_rejected", measured(float64(m.Dropped), 0))
	if tr != nil {
		timed.mu.Lock()
		r.set("llm.select_ns", measured(median(timed.ns), len(timed.ns)))
		r.set("llm.select_calls", measured(float64(len(timed.ns)), 0))
		timed.mu.Unlock()
	}
	fmt.Fprintf(o.out, "llm: %d queries, %d runs of %.3f s median, %d steps, %d switches, models %v\n",
		len(qs), reps, median(runSecs), m.Steps, m.ModelSwitches, m.ModelCounts)
	r.attempted, r.failed = len(qs)*reps, m.Dropped*reps
	return r, nil
}
