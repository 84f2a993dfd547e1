package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"ramsis/internal/llm"
	"ramsis/internal/telemetry"
)

// GenRequest is the LLM worker HTTP API request: generate Decode output
// tokens for a prompt of Prefill tokens.
type GenRequest struct {
	Prefill int `json:"prefill"`
	Decode  int `json:"decode"`
}

// GenSummary is the JSON trailer of a /generate stream, reported in modeled
// seconds (unscaled by TimeScale, like InferResponse.Latency).
type GenSummary struct {
	Model   string  `json:"model"`
	Prefill int     `json:"prefill"`
	Decode  int     `json:"decode"`
	TTFT    float64 `json:"ttft"`
	Latency float64 `json:"latency"`
}

// genReq is one in-flight /generate request, the Ref of its llm.Seq. The
// step loop writes sum and reject; the handler reads them only after tok is
// closed, which orders the writes.
type genReq struct {
	traceID string
	// tok receives one send per generated token and is closed on
	// completion (or rejection). Capacity covers every token, so the step
	// loop never blocks on a slow reader.
	tok    chan struct{}
	sum    GenSummary
	reject string
}

// LLMWorker is an HTTP worker for the token-level workload: POST /generate
// runs the request through a continuous-batching step loop shared across
// all in-flight requests, streaming one byte per generated token (the
// client's first byte read is a real wire TTFT measurement) and closing
// with a newline-delimited JSON summary trailer. The loop drives the same
// llm.Batcher as the simulator's engine — per-step admission under KV
// reservations, decode-first composition, chunked prefill, drain-then-switch
// model selection — in wall-clock time: its clock is the time since Start
// times TimeScale, and each step holds the batch for the step model's
// modeled latency divided by TimeScale. Metrics are reported in modeled
// time either way, like the scalar Worker.
type LLMWorker struct {
	Models    llm.Set
	SLO       float64
	TimeScale float64
	// Selector is consulted at every step boundary with the worker's
	// observable state; nil pins the most accurate model.
	Selector llm.Selector
	// KVCap, when > 0, overrides every model's KV capacity in tokens.
	KVCap int
	// Telemetry backs /metrics; Start builds a registry when nil. The LLM
	// serving series (TTFT, TBT, step latency, token counts, KV usage) use
	// the same names the simulator's engine exports.
	Telemetry *telemetry.Registry
	// Name and Index mark this worker's trace fragments, as on Worker.
	Name  string
	Index int
	// Traces rings a fragment per served request (batch_wait, prefill,
	// decode spans); Start builds one when nil.
	Traces *telemetry.TraceBuffer
	// TraceWriter, when set, additionally streams fragments as JSONL.
	TraceWriter *telemetry.TraceWriter

	mu      sync.Mutex
	cond    *sync.Cond
	b       *llm.Batcher // guarded by mu
	start   time.Time
	stopped bool
	srv     *http.Server
	addr    string

	tel     *telemetry.LLMSeries
	kvGauge *telemetry.Gauge
}

// NewLLMWorker builds an LLM worker server (not yet started).
func NewLLMWorker(models llm.Set, slo, timeScale float64, sel llm.Selector) *LLMWorker {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &LLMWorker{
		Models:    models,
		SLO:       slo,
		TimeScale: timeScale,
		Selector:  sel,
		Index:     -1,
	}
}

// Start validates the model set, listens on a random localhost port, and
// launches the step loop.
func (w *LLMWorker) Start() error {
	if err := w.Models.Validate(); err != nil {
		return err
	}
	w.cond = sync.NewCond(&w.mu)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = ln.Addr().String()
	if w.Telemetry == nil {
		w.Telemetry = telemetry.NewRegistry()
	}
	if w.Name == "" {
		w.Name = "llm-worker"
	}
	if w.Traces == nil {
		w.Traces = telemetry.NewTraceBuffer(0)
	}
	reg := w.Telemetry
	w.tel = telemetry.NewLLMSeries(reg)
	w.kvGauge = w.tel.KVUsage(max(w.Index, 0))
	w.b = llm.NewBatcher(w.Models.WithKVCap(w.KVCap), w.SLO, w.Selector, (*genEvents)(w))
	w.start = time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/generate", w.handleGenerate)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", w.Traces.Handler())
	telemetry.RegisterPprof(mux)
	w.srv = &http.Server{Handler: mux}
	go func() { _ = w.srv.Serve(ln) }()
	go w.loop()
	return nil
}

// URL returns the worker's base URL.
func (w *LLMWorker) URL() string { return "http://" + w.addr }

// Stop halts the step loop, fails any in-flight requests, and shuts the
// server down.
func (w *LLMWorker) Stop() error {
	w.mu.Lock()
	if !w.stopped {
		w.stopped = true
		w.b.Abort(func(s *llm.Seq) {
			r := s.Ref.(*genReq)
			r.reject = "worker stopped"
			close(r.tok)
		})
		w.cond.Broadcast()
	}
	w.mu.Unlock()
	if w.srv == nil {
		return nil
	}
	return w.srv.Close()
}

func (w *LLMWorker) handleGenerate(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	var gr GenRequest
	if err := json.Unmarshal(body, &gr); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	r := &genReq{
		traceID: req.Header.Get("X-Trace-Id"),
		tok:     make(chan struct{}, max(gr.Decode, 1)),
	}
	arrival := w.now()
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		http.Error(rw, "worker stopped", http.StatusServiceUnavailable)
		return
	}
	w.b.Enqueue(llm.Seq{Ref: r, Arrival: arrival, Prefill: gr.Prefill, Decode: gr.Decode})
	w.mu.Unlock()
	w.cond.Signal()

	// Stream one byte per generated token, flushing each so the client's
	// first byte is a real wire-level TTFT. Headers ride out with the first
	// token write.
	fl, _ := rw.(http.Flusher)
	rw.Header().Set("Content-Type", "application/octet-stream")
	streamed := 0
	for range r.tok {
		if _, err := rw.Write([]byte{'t'}); err != nil {
			return // client went away; the loop still finishes the sequence
		}
		if fl != nil {
			fl.Flush()
		}
		streamed++
	}
	if r.reject != "" && streamed == 0 {
		http.Error(rw, r.reject, http.StatusServiceUnavailable)
		return
	}
	trailer, err := json.Marshal(r.sum)
	if err != nil {
		return
	}
	_, _ = rw.Write(append(append(make([]byte, 0, len(trailer)+1), '\n'), trailer...))
}

// now returns the worker's clock: modeled seconds since Start.
func (w *LLMWorker) now() float64 { return time.Since(w.start).Seconds() * w.TimeScale }

// loop drives the worker's Batcher in wall-clock time: begin a step, hold
// the batch for its modeled time compressed by TimeScale, then land it.
func (w *LLMWorker) loop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for !w.stopped && w.b.Idle() {
			w.cond.Wait()
		}
		if w.stopped {
			return
		}
		st, ok := w.b.Begin(w.now())
		if !ok {
			continue
		}
		tau := st.Model.StepTime(st.Prefill, st.Decode, st.KV)
		w.tel.ObserveStep(st.Model.Name, tau, st.Prefill, st.Decode)

		w.mu.Unlock()
		time.Sleep(time.Duration(tau / w.TimeScale * float64(time.Second)))
		w.mu.Lock()
		if w.stopped {
			return
		}
		w.b.Land(w.now())
		w.kvGauge.Set(w.b.KVUsage())
	}
}

// genEvents receives the worker's Batcher events, under the worker's mutex.
type genEvents LLMWorker

// Reject answers a request whose footprint can never fit the serving
// model's KV cache.
func (ev *genEvents) Reject(s *llm.Seq, m llm.StepModel) {
	r := s.Ref.(*genReq)
	r.reject = fmt.Sprintf("request footprint %d tokens exceeds model %s KV capacity %d",
		s.Prefill+s.Decode, m.Name, m.KVCapTokens)
	close(r.tok)
}

// Token observes the token's TTFT or TBT and streams it to the handler.
func (ev *genEvents) Token(s *llm.Seq, first bool, at float64) {
	if first {
		ev.tel.TTFT.Observe(at - s.Arrival)
	} else {
		ev.tel.TBT.Observe(at - s.LastTokenAt)
	}
	s.Ref.(*genReq).tok <- struct{}{}
}

// Switch counts a serving-model switch.
func (ev *genEvents) Switch(_, _ int, _ float64) { ev.tel.Switches.Inc() }

// Finish records one served request and releases its handler.
func (ev *genEvents) Finish(s *llm.Seq, m llm.StepModel, batch int, end float64) {
	r := s.Ref.(*genReq)
	lat := end - s.Arrival
	met := ev.SLO <= 0 || lat <= ev.SLO
	ev.tel.ObserveServed(m.Name, m.Accuracy, lat, !met, "")
	qt := telemetry.QueryTrace{
		ID: -1, Worker: ev.Index,
		Model: m.Name, Batch: batch,
		LatencyMS:   lat * 1000,
		DeadlineMet: met,
		TraceID:     r.traceID, Process: ev.Name,
		Spans: []telemetry.Span{
			{Stage: telemetry.StageBatchWait, Seconds: s.AdmitAt - s.Arrival},
			{Stage: telemetry.StagePrefill, Seconds: s.FirstTokenAt - s.AdmitAt},
			{Stage: telemetry.StageDecode, Seconds: end - s.FirstTokenAt},
		},
	}
	ev.Traces.Add(qt)
	if ev.TraceWriter != nil {
		_ = ev.TraceWriter.Write(qt)
	}
	r.sum = GenSummary{
		Model:   m.Name,
		Prefill: s.Prefill,
		Decode:  s.Decode,
		TTFT:    s.FirstTokenAt - s.Arrival,
		Latency: lat,
	}
	close(r.tok)
}

// GenResult is the client-side view of one /generate stream: wall-clock
// wire measurements (seconds) alongside the worker's modeled-time summary.
// TTFTWall is the time from POST to the first streamed token byte — a real
// network measurement, not a server-reported figure.
type GenResult struct {
	TTFTWall    float64
	LatencyWall float64
	Tokens      int
	Summary     GenSummary
}

// PostGenerate issues one /generate call and consumes the token stream,
// timing the first byte (wire TTFT) and the full exchange.
func PostGenerate(c *http.Client, base string, prefill, decode int) (GenResult, error) {
	var res GenResult
	body, err := json.Marshal(GenRequest{Prefill: prefill, Decode: decode})
	if err != nil {
		return res, err
	}
	start := time.Now()
	resp, err := c.Post(base+"/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	var first [1]byte
	if _, err := io.ReadFull(resp.Body, first[:]); err != nil {
		return res, fmt.Errorf("serve: /generate %s: empty stream: %w", resp.Status, err)
	}
	res.TTFTWall = time.Since(start).Seconds()
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	res.LatencyWall = time.Since(start).Seconds()
	data := append(first[:1:1], rest...)
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("serve: /generate %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return res, fmt.Errorf("serve: /generate stream missing summary trailer")
	}
	res.Tokens = i
	if err := json.Unmarshal(data[i+1:], &res.Summary); err != nil {
		return res, fmt.Errorf("serve: /generate summary: %w", err)
	}
	return res, nil
}
