package main

import (
	"io"
	"time"

	"ramsis/internal/telemetry"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds int
	// oneSetup makes a single cold set-up instead of the workload's usual
	// several (the traced pass, whose set-up time is not reported).
	oneSetup bool
	out      io.Writer
}

// setups is how many cold set-ups a run makes; setup_s is their median.
func setups(o options, usual int) int {
	if o.oneSetup {
		return 1
	}
	return usual
}

// The host timer calibration: enough sleeps that at least ten lie beyond
// the p99, short enough to cost about a second.
const (
	calibrationSleeps = 1000
	calibrationSleep  = 100 * time.Microsecond
)

// setHost records the host timer calibration taken at the start of the run.
func setHost(r *report, overshootUS []float64) {
	v, _, _ := percentile(overshootUS, 50)
	r.set("host.sleep_overshoot_p50_us", measured(v, len(overshootUS)))
	r.setTail("host.sleep_overshoot_p99_us", overshootUS, 99, 1)
}

// summary is what summarize counted over the measured phase.
type summary struct{ sent, failed int }

// summarize records the request-level end-to-end metrics over the
// measured phase (warm-up excluded). Counts cover every tenant; SLO
// attainment, accuracy and latency cover the tenants contract selects.
func summarize(r *report, results []result, contract func(tenant int) bool) summary {
	var m summary
	var refused, inSent, met int
	var accSum float64
	var lat, late []float64
	for _, x := range results {
		if x.step < 0 {
			continue
		}
		m.sent++
		late = append(late, x.lateMS)
		if x.refused {
			refused++
		}
		if x.failed {
			m.failed++
		}
		if !contract(x.tenant) {
			continue
		}
		inSent++
		if x.met {
			met++
			accSum += x.accuracy
		}
		if x.answered && !x.failed {
			lat = append(lat, x.latMS)
		}
	}
	share := func(k, n int) float64 { return float64(k) / float64(max(n, 1)) }
	r.set("slo_attainment", measured(share(met, inSent), inSent))
	if met > 0 {
		r.set("accuracy", measured(accSum/float64(met), met))
	} else {
		r.set("accuracy", missing("no request met its SLO"))
	}
	r.set("latency_p50_ms", measured(median(lat), len(lat)))
	r.setTail("latency_p99_ms", lat, 99, 1)
	r.set("ok_share", measured(1-share(m.failed, m.sent), m.sent))
	r.set("error_share", measured(share(m.failed, m.sent), m.sent))
	r.set("shed_share", measured(share(refused, m.sent), m.sent))
	r.setTail("bench.gen_late_p99_ms", late, 99, 1)
	return m
}

func answeredCount(results []result) int {
	n := 0
	for _, x := range results {
		if x.answered {
			n++
		}
	}
	return n
}

// setServeStages records the frontend's own per-stage latency histograms
// (ramsis_stage_seconds, modeled seconds) and batch sizes. They cover the
// plane's whole life, set-up probe and warm-up included. The dispatch
// stage is the /infer round trip net of the worker-reported inference
// time; divided by timeScale it is the wall-clock overhead of the wire
// and the worker's sleep overshoot.
func setServeStages(r *report, reg *telemetry.Registry, timeScale float64, failedDispatches int) {
	for _, st := range telemetry.Stages() {
		h := reg.Histogram(telemetry.MetricStageSeconds, "stage", st)
		n := int(h.Count())
		r.set("serve.stage."+st+"_p50_ms", programReported(h.Quantile(50)*1000, n))
		if n >= 100*minBeyond {
			r.set("serve.stage."+st+"_p99_ms", programReported(h.Quantile(99)*1000, n))
		} else {
			r.set("serve.stage."+st+"_p99_ms", missing("fewer than 1000 samples"))
		}
		if st == telemetry.StageDispatch {
			r.set("serve.dispatch_overhead_p50_ms", programReported(h.Quantile(50)*1000/timeScale, n))
			if n >= 100*minBeyond {
				r.set("serve.dispatch_overhead_p99_ms", programReported(h.Quantile(99)*1000/timeScale, n))
			}
		}
	}
	b := reg.Histogram(telemetry.MetricBatchSize)
	r.set("serve.batch_mean", programReported(b.Mean(), int(b.Count())))
	r.set("serve.failed_dispatches", programReported(float64(failedDispatches), 0))
}
