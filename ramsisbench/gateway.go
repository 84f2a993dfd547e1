package main

import (
	"fmt"
	"time"

	"ramsis/internal/profile"
	"ramsis/internal/serve"
	"ramsis/internal/tenant"
)

// gateway-fast is the sharded multi-tenant plane under compressed time:
// inference takes milliseconds of wall time, so the gateway, fair
// admission, the shard queues and the /infer wire do most of the work. Two
// tenants with different SLOs climb a fixed ladder of offered rates from
// well under to past the plane's capacity; the batch tenant goes past its
// contract on the top rungs while the interactive tenant stays within its
// own.
const (
	// gatewayTimeScale compresses modeled time, so inference sleeps tens of
	// milliseconds of wall time. The host's timer and scheduling jitter is
	// multiplied by it, so a larger factor trades steadiness for data-plane
	// load.
	gatewayTimeScale = 2
	gatewayShards    = 2
	gatewayWorkers   = 2 // per shard
	gatewayD         = 20
	gatewaySetups    = 3
	// attainTarget is the interactive tenant's SLO attainment a rung must
	// keep to count toward max_qps.
	attainTarget = 0.95
)

// The tenants' policies are solved for their contracts' sum, 120 QPS, while
// weighted-fair admission meters the plane at gatewayCapacity: the
// interactive tenant's share (2/3 of it) covers its whole ladder, and the
// batch tenant runs past its share from the third rung and past its
// contract on the top one, so admission both borrows and sheds.
var gatewayTenants = []tenant.Tenant{
	{Name: "interactive", Class: "interactive", SLOMS: 150, Weight: 2, RateQPS: 60},
	{Name: "batch", Class: "batch", SLOMS: 400, Weight: 1, RateQPS: 60},
}

const gatewayCapacity = 100 // QPS admitted plane-wide

// gatewayRungs are the modeled offered rates per rung: {interactive, batch}.
// Each tenant's own rate stays well below 120 QPS: its rate monitor reads a
// 0.5 s window, and a reading above the solved-for rate makes
// serve.RAMSISSelector generate a new policy in the background, which
// would turn this data-plane workload into a control-plane one.
var gatewayRungs = [][]float64{{20, 20}, {40, 40}, {55, 45}, {55, 60}, {55, 70}}

func setupGateway(seed int64, tr *tracer) (*serve.ShardedCluster, time.Duration, error) {
	t0 := time.Now()
	root := tr.open("setup", -1, -1, t0)
	models, err := profile.SetForTask("image")
	if err != nil {
		return nil, 0, err
	}
	c, err := serve.StartShardedCluster(serve.ShardedConfig{
		Models: models, Tenants: gatewayTenants, Shards: gatewayShards,
		WorkersPerShard: gatewayWorkers, TimeScale: gatewayTimeScale, Seed: seed,
		D: gatewayD, ShardBy: "hash", Fair: tenant.FairConfig{CapacityQPS: gatewayCapacity},
	})
	if err != nil {
		return nil, 0, err
	}
	g1 := time.Now()
	tr.add("serve.start_sharded_cluster", -1, root, t0, g1)
	ch, eerr := c.Gateway.Route(gatewayTenants[0].Name)
	if eerr != nil {
		c.Stop()
		return nil, 0, fmt.Errorf("first request refused: %v", eerr)
	}
	t1 := time.Now()
	tr.add("tenant.first_route", -1, root, g1, t1)
	tr.close(root, t1)
	<-ch
	return c, t1.Sub(t0), nil
}

// rungStat is what one ladder rung measured for max_qps.
type rungStat struct {
	offered   float64 // total modeled QPS
	attain    float64 // the within-contract tenant's SLO attainment
	depths    []float64
	sentCount int
}

// backlogGrowing reports whether queue depth samples taken in order over a
// rung grew: the last quarter's mean exceeds the first quarter's by more
// than tol queries.
func backlogGrowing(depths []float64, tol float64) bool {
	q := len(depths) / 4
	if q == 0 {
		return false
	}
	return mean(depths[len(depths)-q:])-mean(depths[:q]) > tol
}

// maxQPS is the highest rung, climbing from the bottom, up to which every
// rung kept the attainment target with no backlog growth; 0 when the first
// rung already failed.
func maxQPS(rungs []rungStat, target, tol float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.attain < target || backlogGrowing(r.depths, tol) {
			break
		}
		best = r.offered
	}
	return best
}

func runGateway(o options, tr *tracer) (*report, error) {
	r := newReport("gateway-fast")
	cal := sleepOvershoot(calibrationSleeps, calibrationSleep)
	var setupSecs []float64
	var c *serve.ShardedCluster
	for i := 0; i < setups(o, gatewaySetups); i++ {
		if c != nil {
			c.Stop()
		}
		collect()
		var d time.Duration
		var err error
		c, d, err = setupGateway(o.seed, tr)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, d.Seconds())
	}
	defer c.Stop()
	r.set("setup_s", measured(median(setupSecs), len(setupSecs)))

	each := time.Duration(o.seconds) * time.Second / time.Duration(len(gatewayRungs))
	warm, arrivals := poissonSteps(o.seed, time.Second, each, gatewayRungs, gatewayTimeScale)
	names := make([]string, len(gatewayTenants))
	for i, t := range gatewayTenants {
		names[i] = t.Name
	}
	g := c.Gateway
	shards := c.Shards()
	collect()
	ss := drive(time.Now(), warm, names, g.Route, tr, "tenant.route", nil)
	statsBefore := g.Stats()
	collect()
	before := readUsage()
	depths := make([][]float64, len(gatewayRungs))
	var spread []float64
	ss = append(ss, drive(time.Now(), arrivals, names, g.Route, tr, "tenant.route", func(i int, _ time.Time) {
		lo, hi, total := 1<<30, 0, 0
		for _, fe := range shards {
			d := fe.Outstanding()
			lo, hi, total = min(lo, d), max(hi, d), total+d
		}
		step := arrivals[i].step
		depths[step] = append(depths[step], float64(total))
		spread = append(spread, float64(hi-lo))
	})...)
	after := readUsage()

	models := shards[0].Profiles
	results, fails := judge(ss, models, gatewayTimeScale,
		func(t int) float64 { return gatewayTenants[t].SLO() }, tr)
	for _, f := range fails {
		r.fail("%s", f)
	}
	st := g.Stats()
	if got, want := st.Served-statsBefore.Served, answeredCount(results[len(warm):]); got != want {
		r.fail("gateway served %d queries after warm-up, the benchmark received %d answers", got, want)
	}
	if st.FailedDispatches > 0 {
		r.fail("%d dispatches failed", st.FailedDispatches)
	}
	interactive := func(t int) bool { return t == 0 }
	m := summarize(r, results, interactive)

	rungs := make([]rungStat, len(gatewayRungs))
	for i, rr := range gatewayRungs {
		rungs[i].offered = rr[0] + rr[1]
		rungs[i].depths = depths[i]
	}
	met := make([]int, len(rungs))
	for _, x := range results {
		if x.step >= 0 && x.tenant == 0 {
			rungs[x.step].sentCount++
			if x.met {
				met[x.step]++
			}
		}
	}
	for i := range rungs {
		rungs[i].attain = float64(met[i]) / float64(max(rungs[i].sentCount, 1))
		fmt.Fprintf(o.out, "rung %d: offered %g QPS, interactive attainment %.4f (n=%d), depth %.1f→%.1f\n",
			i, rungs[i].offered, rungs[i].attain, rungs[i].sentCount,
			mean(firstQuarter(rungs[i].depths)), mean(lastQuarter(rungs[i].depths)))
	}
	r.set("max_qps", measured(maxQPS(rungs, attainTarget, gatewayShards*gatewayWorkers), len(rungs)))

	setProcess(r, before, after, m.sent)
	setHost(r, cal)
	setServeStages(r, shards[0].Telemetry, gatewayTimeScale, st.FailedDispatches)
	for _, t := range gatewayTenants {
		a, b := st.Tenants[t.Name], statsBefore.Tenants[t.Name]
		r.set("admit.admitted."+t.Name, programReported(float64(a.Admitted-b.Admitted), 0))
		r.set("admit.shed."+t.Name, programReported(float64(a.Shed-b.Shed), 0))
		r.set("admit.borrowed."+t.Name, programReported(float64(a.Borrowed-b.Borrowed), 0))
	}
	r.set("tenant.shard_depth_spread", measured(mean(spread), len(spread)))
	if tr != nil {
		route := make([]float64, 0, len(ss))
		for _, s := range ss {
			if s.step >= 0 {
				route = append(route, float64(s.ret.Sub(s.start))/1e3)
			}
		}
		r.set("tenant.route_p50_us", measured(median(route), len(route)))
		r.setTail("tenant.route_p99_us", route, 99, 1)
	}
	r.attempted, r.failed = m.sent, m.failed
	return r, nil
}

func firstQuarter(xs []float64) []float64 { return xs[:len(xs)/4] }
func lastQuarter(xs []float64) []float64  { return xs[len(xs)-len(xs)/4:] }
