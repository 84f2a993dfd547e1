package telemetry

import "strconv"

// LLMSeries is the token-level serving series set. The simulator's LLM
// engine and the live LLM worker both register it, so a sim run and a
// serving plane expose the same names and labels.
type LLMSeries struct {
	TTFT, TBT *Histogram
	Switches  *Counter

	queries, violations, satAcc *Counter
	latency, step               *Histogram
	prefillTokens, decodeTokens *Counter
	steps, modelQueries         *CounterVec
	reg                         *Registry
}

// NewLLMSeries registers the LLM serving series on reg.
func NewLLMSeries(reg *Registry) *LLMSeries {
	s := &LLMSeries{
		queries:       reg.Counter(MetricQueries),
		violations:    reg.Counter(MetricViolations),
		satAcc:        reg.Counter(MetricSatAccuracySum),
		latency:       reg.Histogram(MetricLatencySeconds),
		TTFT:          reg.Histogram(MetricLLMTTFT),
		TBT:           reg.Histogram(MetricLLMTBT),
		step:          reg.Histogram(MetricLLMStepSeconds),
		prefillTokens: reg.Counter(MetricLLMTokens, "kind", "prefill"),
		decodeTokens:  reg.Counter(MetricLLMTokens, "kind", "decode"),
		Switches:      reg.Counter(MetricLLMModelSwitches),
		steps:         reg.CounterVec(MetricLLMSteps, "model"),
		modelQueries:  reg.CounterVec(MetricModelQueries, "model"),
		reg:           reg,
	}
	reg.Help(MetricLLMTTFT, "Time to first token in modeled seconds.")
	reg.Help(MetricLLMTBT, "Time between decode tokens in modeled seconds.")
	reg.Help(MetricLLMStepSeconds, "Continuous-batching step latency in modeled seconds.")
	return s
}

// KVUsage returns worker's KV-cache occupancy gauge.
func (s *LLMSeries) KVUsage(worker int) *Gauge {
	g := s.reg.Gauge(MetricLLMKVUsage, "worker", strconv.Itoa(worker))
	s.reg.Help(MetricLLMKVUsage, "KV-cache occupancy fraction per worker.")
	return g
}

// ObserveStep records one engine step of tau modeled seconds on model.
func (s *LLMSeries) ObserveStep(model string, tau float64, prefill, decode int) {
	s.step.Observe(tau)
	s.steps.With(model).Inc()
	s.prefillTokens.Add(float64(prefill))
	s.decodeTokens.Add(float64(decode))
}

// ObserveServed records one finished query served by model at the given
// accuracy; only a query within its deadline adds to the satisfied-accuracy
// sum. A non-empty traceID becomes the latency bucket's exemplar.
func (s *LLMSeries) ObserveServed(model string, accuracy, latency float64, violated bool, traceID string) {
	s.queries.Inc()
	if violated {
		s.violations.Inc()
	} else {
		s.satAcc.Add(accuracy)
	}
	s.modelQueries.With(model).Inc()
	s.latency.ObserveExemplar(latency, traceID)
}
