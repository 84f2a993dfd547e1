package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/lb"
	"ramsis/internal/mdp"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/serve"
	"ramsis/internal/telemetry"
)

// image-live is the paper scenario on the live single-tenant plane at
// TimeScale 1: the image set, a 150 ms SLO, 4 workers, the RAMSIS policy
// behind serve.AdaptiveSelector with background re-solves. Poisson
// arrivals climb and descend a staircase whose steps are each ±33–100 %,
// well beyond the adapter's ±20 % hysteresis band, so one run holds a cold
// generation (setup), warm re-solves on the way up and cache hits on the
// way down.
//
// Set-up solves for the staircase's peak rate, as a deployment provisions
// for its peak: until a re-solve lands, the policy ladder then serves a
// climbing rate with the peak's faster models instead of overloading the
// workers with a lower rate's slower ones, so the latency tail measures
// the plane and not the length of one overload transient. The warm-up
// runs at the first stair, below the peak, and so holds the first warm
// re-solve.
const (
	imageSLO     = 0.150
	imageWorkers = 4
	imageD       = 100
	// imageBucket is the adapter's rate bucket: the stair spacing, so each
	// stair is one bucket and a return to a stair is a cache hit. (The
	// default, ±20 % of the initial rate, is narrower than the monitored
	// rate's noise, which would make hits a coin toss.)
	imageBucket = 40.0
	// imageWindow is the rate monitor's window. Two seconds holds ~240
	// arrivals at 120 QPS, so the reading that confirms a drift lands in
	// the stair's own bucket.
	imageWindow = 2.0
	// imageWarmup fills the monitor window at the first stair's rate and
	// leaves time for the drift away from the peak to be confirmed (2 s
	// dwell) and re-solved before measuring starts.
	imageWarmup = 4500 * time.Millisecond
	// imageSetups cold starts per run; setup_s is their median.
	imageSetups = 3
)

var imageStairs = []float64{40, 80, 120, 80, 40}

const imagePeak = 120.0

type imagePlane struct {
	models   profile.Set
	base     core.Config
	reg      *telemetry.Registry
	adapter  *adapt.Adapter
	cluster  *serve.Cluster
	generate time.Duration // the cold core.Generate inside setup
	clock    *driftClock
	sel      *selectStats
	bal      *timedBalancer
	mon      *timedMonitor
}

// setupImage is one cold start: generate the initial policy (value
// iteration, as cmd/serve does by default), build the adapter, start the
// cluster, and have the first request accepted. It returns the time that
// took and the running plane.
func setupImage(seed int64, tr *tracer, offered func(time.Time) float64) (*imagePlane, time.Duration, error) {
	t0 := time.Now()
	root := tr.open("setup", -1, -1, t0)
	p := &imagePlane{reg: telemetry.NewRegistry(), clock: &driftClock{}}
	models, err := profile.SetForTask("image")
	if err != nil {
		return nil, 0, err
	}
	p.models = models
	p.base = core.Config{Models: models, SLO: imageSLO, Workers: imageWorkers,
		Arrival: dist.NewPoisson(1), D: imageD}
	set := core.NewPolicySet(p.base, nil)
	g0 := time.Now()
	if err := set.GenerateLoads([]float64{imagePeak}); err != nil {
		return nil, 0, fmt.Errorf("generate initial policy: %w", err)
	}
	g1 := time.Now()
	p.generate = g1.Sub(g0)
	tr.add("core.generate", -1, root, g0, g1)
	p.adapter, err = adapt.New(adapt.Config{Base: p.base, BucketSize: imageBucket,
		Background: true, Telemetry: p.reg}, set.Policies()[0])
	if err != nil {
		return nil, 0, err
	}
	var sel serve.SelectFunc
	var mon monitor.Monitor = monitor.NewMovingAverage(imageWindow)
	var bal lb.Balancer = lb.NewRoundRobin()
	if tr != nil {
		p.sel = &selectStats{}
		p.bal = &timedBalancer{Balancer: bal, tr: tr}
		p.mon = &timedMonitor{Monitor: mon, tr: tr, offered: offered}
		sel, mon, bal = tracedSelector(p.adapter, models, tr, p.sel), p.mon, p.bal
	} else {
		sel = serve.AdaptiveSelector(p.adapter)
	}
	p.cluster, err = serve.StartCluster(serve.ClusterConfig{
		Models: models, Workers: imageWorkers, SLO: imageSLO, TimeScale: 1,
		Select: clocked(sel, p.adapter, p.clock), Monitor: mon, Seed: seed,
		Balancer: bal, Telemetry: p.reg,
	})
	if err != nil {
		return nil, 0, err
	}
	g2 := time.Now()
	tr.add("serve.start_cluster", -1, root, g1, g2)
	ch, eerr := p.cluster.Frontend.Enqueue("")
	if eerr != nil {
		p.cluster.Stop()
		return nil, 0, fmt.Errorf("first request refused: %v", eerr)
	}
	t1 := time.Now()
	tr.add("serve.first_accept", -1, root, g2, t1)
	tr.close(root, t1)
	<-ch
	return p, t1.Sub(t0), nil
}

func runImage(o options, tr *tracer) (*report, error) {
	r := newReport("image-live")
	cal := sleepOvershoot(calibrationSleeps, calibrationSleep)
	each := time.Duration(o.seconds) * time.Second / time.Duration(len(imageStairs))
	// genStart is written here and read by the monitor hook on the
	// frontend's goroutines, hence atomic.
	var genStart atomic.Int64
	offered := func(now time.Time) float64 {
		g := genStart.Load()
		i := int(time.Duration(now.UnixNano()-g) / each)
		if g == 0 {
			return imageStairs[0]
		}
		return imageStairs[min(i, len(imageStairs)-1)]
	}

	var setupSecs, gens []float64
	var p *imagePlane
	for i := 0; i < setups(o, imageSetups); i++ {
		if p != nil {
			p.cluster.Stop()
		}
		collect()
		var d time.Duration
		var err error
		p, d, err = setupImage(o.seed, tr, offered)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, d.Seconds())
		gens = append(gens, p.generate.Seconds())
	}
	defer p.cluster.Stop()
	r.set("setup_s", measured(median(setupSecs), len(setupSecs)))
	r.set("core.generate_s", measured(median(gens), len(gens)))

	if tr != nil {
		// The control-plane phases, on the configs the workload generates:
		// cold value iteration at the peak (what setup ran), and a warm
		// prioritized re-solve for the second stair from the cached peak
		// policy's values. The cold phases alternate with whole cold
		// core.Generate calls, twice, so the two are compared under the
		// same host conditions.
		cfg := p.base
		cfg.Arrival = dist.NewPoisson(imagePeak)
		var colds []phaseTimes
		var whole []float64
		for i := 0; i < 2; i++ {
			cold, err := buildPhases(tr, "policy_build.cold", -1, cfg, mdp.MethodJacobi, nil)
			if err != nil {
				return nil, err
			}
			colds = append(colds, cold)
			g0 := time.Now()
			if _, err := core.Generate(cfg); err != nil {
				return nil, err
			}
			whole = append(whole, time.Since(g0).Seconds())
		}
		cfg.Arrival = dist.NewPoisson(imageStairs[1])
		warm, err := buildPhases(tr, "policy_build.warm", -1, cfg, mdp.MethodPrioritized,
			p.adapter.Current().Policies()[0].SolveValues())
		if err != nil {
			return nil, err
		}
		cold := meanPhases(colds)
		setPhases(r, cold, warm)
		r.set("core.generate_s", measured(mean(whole), len(whole)))
		fmt.Fprintf(o.out, "cold phases sum %.3f s vs cold core.Generate %.3f s (ratio %.3f, means of %d)\n",
			cold.total().Seconds(), mean(whole), cold.total().Seconds()/mean(whole), len(whole))
	}

	rates := make([][]float64, len(imageStairs))
	for i, s := range imageStairs {
		rates[i] = []float64{s}
	}
	warm, arrivals := poissonSteps(o.seed, imageWarmup, each, rates, 1)
	fe := p.cluster.Frontend
	statsBefore := fe.Stats()
	poll := func(_ int, now time.Time) { p.clock.poll(p.adapter.Stats(), now) }
	collect()
	ss := drive(time.Now(), warm, []string{""}, fe.Enqueue, tr, "serve.enqueue", poll)
	// The warm-up holds the re-solve away from the peak. Let it land, then
	// start measuring from a collected heap.
	waitIdle(p.adapter)
	collect()
	before := readUsage()
	t0 := time.Now()
	genStart.Store(t0.UnixNano())
	ss = append(ss, drive(t0, arrivals, []string{""}, fe.Enqueue, tr, "serve.enqueue", poll)...)
	// A re-solve still running finishes inside the measured phase: its CPU
	// is the program's.
	waitIdle(p.adapter)
	after := readUsage()
	p.clock.poll(p.adapter.Stats(), time.Now())

	results, fails := judge(ss, p.models, 1, func(int) float64 { return imageSLO }, tr)
	for _, f := range fails {
		r.fail("%s", f)
	}
	st := fe.Stats()
	if got, want := st.Served-statsBefore.Served, answeredCount(results); got != want {
		r.fail("frontend served %d queries, the benchmark received %d answers", got, want)
	}
	m := summarize(r, results, func(int) bool { return true })
	setProcess(r, before, after, m.sent)
	setHost(r, cal)

	secs, hits := p.clock.resolveSeconds()
	if len(secs) > 0 {
		r.set("drift_to_swap_s", measured(median(secs), len(secs)))
	} else {
		r.set("drift_to_swap_s", missing("no re-solve completed"))
	}
	as := p.adapter.Stats()
	r.set("adapt.resolves", measured(float64(as.Resolves), 0))
	r.set("adapt.cache_hits", measured(float64(as.CacheHits), 0))
	r.set("adapt.warm_starts", measured(float64(as.WarmStarts), 0))
	r.set("adapt.resolve_errors", measured(float64(as.ResolveErrors), 0))
	r.set("adapt.stale_decisions", measured(float64(p.clock.stale), 0))
	fmt.Fprintf(o.out, "adapter: %d re-solves (drift-to-swap %v s), %d cache-hit swaps, active bucket %g QPS\n",
		len(secs), secs, hits, as.ActiveBucket)
	if as.ResolveErrors > 0 {
		r.fail("adapter reported %d re-solve errors", as.ResolveErrors)
	}
	setServeStages(r, p.reg, 1, st.FailedDispatches)
	if tr != nil {
		setHooks(r, p.sel, p.bal, p.mon)
		enq := make([]float64, 0, len(ss))
		for _, s := range ss {
			enq = append(enq, float64(s.ret.Sub(s.start))/1e3)
		}
		r.set("serve.enqueue_us", measured(median(enq), len(enq)))
	}

	if err := checkResolveMatchesJacobi(r, p); err != nil {
		return nil, err
	}
	r.attempted, r.failed = m.sent, m.failed
	return r, nil
}

// waitIdle waits (up to a bound) until the adapter has published a swap
// for every drift it confirmed, so the run ends with no solve in flight.
func waitIdle(a *adapt.Adapter) {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		s := a.Stats()
		if s.Swaps+s.ResolveErrors >= s.CacheHits+s.CacheMisses {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkResolveMatchesJacobi holds the adapter's warm prioritized re-solve
// for the second stair to the policy a cold value-iteration solve of the
// same bucket produces.
func checkResolveMatchesJacobi(r *report, p *imagePlane) error {
	var warm *core.Policy
	for _, pol := range p.adapter.Current().Policies() {
		if pol.Load == imageStairs[1] {
			warm = pol
			break
		}
	}
	if warm == nil {
		r.fail("no re-solved policy to hold against value iteration")
		return nil
	}
	cfg := p.base
	cfg.Arrival = dist.NewPoisson(warm.Load)
	ref, err := core.Generate(cfg)
	if err != nil {
		return fmt.Errorf("reference value-iteration solve: %w", err)
	}
	if ok, diff := samePolicy(warm, ref); !ok {
		r.fail("prioritized re-solve at %g QPS differs from value iteration: %s", warm.Load, diff)
	}
	return nil
}

// setPhases records the cold and warm control-plane phase times.
func setPhases(r *report, cold, warm phaseTimes) {
	r.set("core.transitions_s", measured(cold.transitions.Seconds(), 0))
	r.set("mdp.compile_s", measured(cold.compile.Seconds(), 0))
	r.set("mdp.solve_s", measured(cold.solve.Seconds(), 0))
	r.set("mdp.solve_iterations", measured(float64(cold.iterations), 0))
	r.set("core.expectations_s", measured(cold.expectations.Seconds(), 0))
	r.set("core.states", measured(float64(cold.states), 0))
	r.set("core.transition_count", measured(float64(cold.transitionCount), 0))
	r.set("core.warm_transitions_s", measured(warm.transitions.Seconds(), 0))
	r.set("mdp.warm_solve_s", measured(warm.solve.Seconds(), 0))
	r.set("mdp.warm_solve_iterations", measured(float64(warm.iterations), 0))
	r.set("core.warm_expectations_s", measured(warm.expectations.Seconds(), 0))
}

// setHooks records what the traced hooks measured.
func setHooks(r *report, sel *selectStats, bal *timedBalancer, mon *timedMonitor) {
	sel.mu.Lock()
	r.set("core.select_ns", measured(median(sel.selectNs), len(sel.selectNs)))
	r.set("adapt.observe_ns", measured(median(sel.observeNs), len(sel.observeNs)))
	if sel.calls > 0 {
		r.set("core.select_batch_mean", measured(sel.batchSum/float64(sel.calls), sel.calls))
		r.set("core.select_accuracy_mean", measured(sel.accuracySum/float64(sel.calls), sel.calls))
	}
	sel.mu.Unlock()
	bal.mu.Lock()
	r.set("lb.pick_ns", measured(median(bal.pickNs), len(bal.pickNs)))
	r.set("lb.outstanding_spread", measured(mean(bal.spread), len(bal.spread)))
	bal.mu.Unlock()
	mon.mu.Lock()
	r.set("monitor.rate_error", measured(mean(mon.rateErr), len(mon.rateErr)))
	mon.mu.Unlock()
}
