package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ramsis/internal/profile"
	"ramsis/internal/serve"
)

// arrival is one scheduled send of the open-loop generator.
type arrival struct {
	id     int           // unique within a run; the request's trace id
	at     time.Duration // offset from the generator's start, wall time
	tenant int           // index into the workload's tenant names
	step   int           // stair or rung index; -1 for warm-up
}

// poissonSteps lays out Poisson arrivals for consecutive steps of wall
// duration each; rates[i][t] is tenant t's modeled rate on step i, and
// scale compresses modeled time into wall time (TimeScale). It returns a
// warm-up of the given length at rates[0] (step -1) and the measured
// steps, each timed from its own start.
func poissonSteps(seed int64, warmup, each time.Duration, rates [][]float64, scale float64) (warm, measured []arrival) {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	emit := func(step int, from, to time.Duration, tenantRates []float64) {
		for t, r := range tenantRates {
			wallRate := r * scale
			if wallRate <= 0 {
				continue
			}
			at := from
			for {
				at += time.Duration(rng.ExpFloat64() / wallRate * float64(time.Second))
				if at >= to {
					break
				}
				out = append(out, arrival{at: at, tenant: t, step: step})
			}
		}
	}
	emit(-1, -warmup, 0, rates[0])
	for i, r := range rates {
		emit(i, time.Duration(i)*each, time.Duration(i+1)*each, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	for i := range out {
		out[i].id = i
		if out[i].step < 0 {
			out[i].at += warmup
			warm = out[:i+1]
		}
	}
	return warm, out[len(warm):]
}

// sent is what the generator and the collector know about one request.
type sent struct {
	arrival
	sched, start, ret time.Time // due, enqueue call start, enqueue call return
	refused           *serve.EnqueueError
	ch                <-chan serve.QueryResponse
	resp              serve.QueryResponse
	answered          bool
	root              int // request span (traced runs)
}

// enqueueFunc is the program call one request is sent through:
// Frontend.Enqueue or Gateway.Route.
type enqueueFunc func(tenant string) (<-chan serve.QueryResponse, *serve.EnqueueError)

// drive runs the open loop from t0: this goroutine sends every arrival at
// its due time through send, and one collector goroutine receives the responses.
// onSend, when set, runs on the generator before each send (sampling
// queue depths, watching the adapter). The collector receives in send
// order, so it never stamps completion itself: a request's completion is
// its enqueue time plus the latency the program reports for it, and its
// end-to-end latency is measured from its due time.
func drive(t0 time.Time, arrivals []arrival, tenants []string, send enqueueFunc, tr *tracer, spanName string, onSend func(i int, now time.Time)) []sent {
	out := make([]sent, len(arrivals))
	// Sized to every arrival so the generator never blocks on the collector.
	pending := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range pending {
			s := &out[i]
			s.resp = <-s.ch
			s.answered = true
		}
	}()
	for i, a := range arrivals {
		s := &out[i]
		s.arrival = a
		s.sched = t0.Add(a.at)
		if d := time.Until(s.sched); d > 0 {
			time.Sleep(d)
		}
		s.start = time.Now()
		if onSend != nil {
			onSend(i, s.start)
		}
		s.root = tr.open("request", int64(a.id), -1, s.sched)
		tr.add("gen.late", int64(a.id), s.root, s.sched, s.start)
		call := tr.open(spanName, int64(a.id), s.root, s.start)
		tr.enter(call)
		s.ch, s.refused = send(tenants[a.tenant])
		tr.enter(-1)
		s.ret = time.Now()
		tr.close(call, s.ret)
		if s.refused == nil {
			pending <- i
		}
	}
	close(pending)
	wg.Wait()
	return out
}

// result is one request's outcome in the SLO's time base.
type result struct {
	tenant, step int
	lateMS       float64 // generator lateness, wall ms
	latMS        float64 // due time to response, modeled ms
	refused      bool    // shed by admission
	failed       bool    // any other failure
	answered     bool    // a response arrived (possibly carrying an error)
	met          bool    // answered within the SLO, measured from the due time
	accuracy     float64 // profiled accuracy of the answering model
}

// judge turns the sent requests into results and runs the output checks
// every serving workload shares: each request is answered exactly once or
// refused, and every answer names a profiled model at a batch size within
// its MaxBatch. slo maps a tenant to its SLO in seconds.
func judge(ss []sent, models profile.Set, timeScale float64, slo func(tenant int) float64, tr *tracer) ([]result, []string) {
	var fails []string
	failf := func(format string, args ...any) {
		if len(fails) < 10 {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}
	out := make([]result, len(ss))
	for i := range ss {
		s := &ss[i]
		r := result{tenant: s.tenant, step: s.step,
			lateMS: float64(s.start.Sub(s.sched)) / 1e6}
		switch {
		case s.refused != nil:
			r.refused = s.refused.Status == 429
			r.failed = !r.refused
			tr.close(s.root, s.ret)
		case !s.answered:
			failf("request %d was accepted but never answered", s.id)
			r.failed = true
		default:
			r.answered = true
			select {
			case extra := <-s.ch:
				failf("request %d answered twice (%+v)", s.id, extra)
			default:
			}
			p, ok := models.ByName(s.resp.Model)
			switch {
			case s.resp.Error != "":
				r.failed = true
			case !ok:
				failf("request %d answered by unknown model %q", s.id, s.resp.Model)
				r.failed = true
			case s.resp.Batch < 1 || s.resp.Batch > p.MaxBatch():
				failf("request %d served in batch %d outside [1, %d] of %s", s.id, s.resp.Batch, p.MaxBatch(), p.Name)
			}
			r.latMS = r.lateMS*timeScale + s.resp.LatencyMS
			r.met = !r.failed && r.latMS <= slo(s.tenant)*1000
			r.accuracy = p.Accuracy
			done := s.start.Add(time.Duration(s.resp.LatencyMS / timeScale * float64(time.Millisecond)))
			tr.add("serve.inflight", int64(s.id), s.root, s.ret, done)
			tr.close(s.root, done)
		}
		out[i] = r
	}
	return out, fails
}
