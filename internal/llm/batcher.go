package llm

import "math"

// Selector picks the step model a worker's next engine step should run. It
// is consulted at every step boundary with the worker's observable state:
// queued is the query count (waiting + running), outstandingTokens the
// unfinished token load, kvUsage the KV-cache occupancy fraction, and
// headSlack the oldest query's remaining deadline headroom in seconds.
// Returning a negative index keeps the current model.
type Selector interface {
	SelectModel(queued, outstandingTokens int, kvUsage, headSlack float64) int
	Name() string
}

// Seq is one sequence's progress through a Batcher. The driver fills ID,
// Ref, Arrival, Prefill and Decode at Enqueue; the Batcher fills the token
// times as the sequence is admitted and generates.
type Seq struct {
	// ID and Ref are the driver's handles, handed back untouched in events.
	ID  int
	Ref any
	// Arrival is the enqueue time in modeled seconds.
	Arrival float64
	// Prefill and Decode are the prompt and output lengths in tokens; the
	// sequence reserves both in the KV cache at admission.
	Prefill, Decode int
	// AdmitAt is when the sequence joined the running batch, FirstTokenAt
	// when its first output token landed, and LastTokenAt when its latest
	// one did.
	AdmitAt, FirstTokenAt, LastTokenAt float64

	prefillLeft, decodeLeft int
	// this step's schedule, consumed by Land
	prefillChunk    int
	decodeScheduled bool
}

// tokens returns the sequence's full footprint: its KV reservation and its
// contribution to the outstanding token load.
func (s *Seq) tokens() int { return s.Prefill + s.Decode }

// Events receives what a Batcher's step boundaries produce, all times in
// modeled seconds. The *Seq is valid only for the duration of the call.
type Events interface {
	// Reject reports a queue head whose footprint exceeds model m's KV
	// capacity even with the cache empty; it leaves the Batcher.
	Reject(s *Seq, m StepModel)
	// Token reports one output token landing at time at; first marks the
	// sequence's first token. On a later token s.LastTokenAt still holds
	// the previous token's time.
	Token(s *Seq, first bool, at float64)
	// Finish reports a sequence whose last token landed at time at, in a
	// step of batch sequences on model m. Its KV reservation is released.
	Finish(s *Seq, m StepModel, batch int, at float64)
	// Switch reports the serving model changing from index from to to.
	Switch(from, to int, at float64)
}

// Step is one composed engine step: the serving model (read-only), the
// prefill and decode tokens it schedules, and the KV occupancy fraction it
// starts at. Its modeled latency is Model.StepTime(Prefill, Decode, KV).
type Step struct {
	Model           *StepModel
	Prefill, Decode int
	KV              float64
}

// Batcher is one worker's continuous-batching state and the only copy of
// the step algorithm. It holds no clock: a driver calls Begin at a step
// boundary, waits the returned step's modeled latency in its own time base
// (event time in the simulator, scaled wall time in the live worker), then
// calls Land. Between those calls it may Enqueue arrivals.
//
// Invariants at every step boundary: kvUsed ≤ kvReserved ≤ the serving
// model's KV capacity; a non-empty running batch schedules at least one
// token; every enqueued sequence is finished exactly once or rejected
// exactly once.
type Batcher struct {
	models Set
	slo    float64
	sel    Selector
	ev     Events

	model      int // index into models
	draining   bool
	waiting    []Seq // FIFO
	running    []Seq
	kvUsed     int // tokens resident
	kvReserved int // full footprints of the running sequences
	outTok     int // unfinished tokens over waiting + running
	batch      int // sequences in the current step
	peakKV     float64
}

// NewBatcher returns an idle Batcher serving the most accurate model of
// models. sel may be nil to pin that model; slo is the deadline the
// selector's head slack is measured against.
func NewBatcher(models Set, slo float64, sel Selector, ev Events) *Batcher {
	return &Batcher{models: models, slo: slo, sel: sel, ev: ev, model: models.MostAccurate()}
}

// Enqueue appends s to the waiting queue, clamping its prefill and decode
// lengths to at least one token.
func (b *Batcher) Enqueue(s Seq) {
	s.Prefill = max(s.Prefill, 1)
	s.Decode = max(s.Decode, 1)
	b.waiting = append(b.waiting, s)
	b.outTok += s.tokens()
}

// Idle reports whether no sequence is waiting or running.
func (b *Batcher) Idle() bool { return len(b.waiting) == 0 && len(b.running) == 0 }

// Outstanding returns the unfinished token load over waiting and running.
func (b *Batcher) Outstanding() int { return b.outTok }

// KVUsage returns the serving model's current KV occupancy fraction.
func (b *Batcher) KVUsage() float64 {
	return float64(b.kvUsed) / float64(b.models.Models[b.model].KVCapTokens)
}

// PeakKVUsage returns the highest KV occupancy fraction seen while landing
// steps, counting each finishing sequence before it releases its tokens.
func (b *Batcher) PeakKVUsage() float64 { return b.peakKV }

// Begin runs one step boundary at time now: it consults the selector,
// switches model or drains toward a switch, admits waiting sequences under
// full-footprint KV reservation, and composes the step decode-first with
// chunked prefill. It returns false when nothing is running afterwards;
// the worker is then idle until the next Enqueue.
func (b *Batcher) Begin(now float64) (Step, bool) {
	if b.Idle() {
		return Step{}, false
	}
	if b.sel != nil {
		b.selectModel(now)
	}
	m := &b.models.Models[b.model]
	if !b.draining {
		b.admit(m, now)
	}
	if len(b.running) == 0 {
		return Step{}, false
	}
	return b.compose(m), true
}

// selectModel applies the selector's decision: an immediate switch when the
// running batch is empty, otherwise drain mode (no admissions until the
// batch empties, then switch).
func (b *Batcher) selectModel(now float64) {
	head := math.Inf(1)
	if len(b.running) > 0 {
		head = b.running[0].Arrival
	}
	if len(b.waiting) > 0 {
		head = min(head, b.waiting[0].Arrival)
	}
	queued := len(b.waiting) + len(b.running)
	desired := b.sel.SelectModel(queued, b.outTok, b.KVUsage(), head+b.slo-now)
	if desired < 0 || desired >= b.models.Len() || desired == b.model {
		b.draining = false
		return
	}
	if len(b.running) > 0 {
		b.draining = true
		return
	}
	from := b.model
	b.model = desired
	b.draining = false
	b.ev.Switch(from, desired, now)
}

// admit moves waiting sequences into the running batch in FIFO order while
// the batch has room and the head's full footprint fits the KV cache. A
// head that cannot fit even an empty cache is rejected rather than left to
// block the queue forever.
func (b *Batcher) admit(m *StepModel, now float64) {
	for len(b.waiting) > 0 && len(b.running) < m.MaxSeqs {
		s := &b.waiting[0]
		need := s.tokens()
		if b.kvReserved+need > m.KVCapTokens {
			if b.kvReserved > 0 {
				break // FIFO admission: no head-of-line bypass
			}
			b.outTok -= need
			b.ev.Reject(s, *m)
			b.waiting = b.waiting[1:]
			continue
		}
		b.kvReserved += need
		s.AdmitAt = now
		s.prefillLeft, s.decodeLeft = s.Prefill, s.Decode
		b.running = append(b.running, *s)
		b.waiting = b.waiting[1:]
	}
}

// compose schedules one decode token per sequence past its prefill, then
// fills the remaining step budget with prefill chunks in batch order.
func (b *Batcher) compose(m *StepModel) Step {
	budget := m.StepBudget()
	p, d := 0, 0
	for i := range b.running {
		s := &b.running[i]
		s.prefillChunk = 0
		s.decodeScheduled = s.prefillLeft == 0 && d < budget
		if s.decodeScheduled {
			d++
		}
	}
	for i := range b.running {
		s := &b.running[i]
		if s.prefillLeft > 0 && p+d < budget {
			s.prefillChunk = min(s.prefillLeft, budget-p-d)
			p += s.prefillChunk
		}
	}
	b.batch = len(b.running)
	return Step{Model: m, Prefill: p, Decode: d, KV: float64(b.kvUsed) / float64(m.KVCapTokens)}
}

// Land completes the step begun last at time now: prefill chunks enter the
// KV cache (a finishing prefill emits the first output token), scheduled
// decode tokens land, and finished sequences release their reservations.
func (b *Batcher) Land(now float64) {
	m := &b.models.Models[b.model]
	n := 0 // sequences kept, compacted in order
	for i := range b.running {
		s := &b.running[i]
		emit := s.decodeScheduled
		s.decodeScheduled = false
		if s.prefillChunk > 0 {
			b.kvUsed += s.prefillChunk
			s.prefillLeft -= s.prefillChunk
			b.outTok -= s.prefillChunk
			s.prefillChunk = 0
			// The step's last forward pass over the prompt emitted the
			// first output token.
			emit = s.prefillLeft == 0
		}
		if emit {
			first := s.decodeLeft == s.Decode
			s.decodeLeft--
			b.kvUsed++
			b.outTok--
			b.ev.Token(s, first, now)
			if first {
				s.FirstTokenAt = now
			}
			s.LastTokenAt = now
		}
		if s.decodeLeft > 0 {
			if n < i {
				b.running[n] = *s
			}
			n++
			continue
		}
		// Every prompt and output token is resident now.
		b.notePeak(m)
		b.kvUsed -= s.tokens()
		b.kvReserved -= s.tokens()
		b.ev.Finish(s, *m, b.batch, now)
	}
	clear(b.running[n:])
	b.running = b.running[:n]
	b.notePeak(m)
}

func (b *Batcher) notePeak(m *StepModel) {
	if r := float64(b.kvUsed) / float64(m.KVCapTokens); r > b.peakKV {
		b.peakKV = r
	}
}

// Abort removes every waiting and running sequence, passing each to fn,
// and leaves the Batcher idle with an empty KV cache.
func (b *Batcher) Abort(fn func(s *Seq)) {
	for i := range b.waiting {
		fn(&b.waiting[i])
	}
	for i := range b.running {
		fn(&b.running[i])
	}
	b.waiting, b.running = nil, nil
	b.kvUsed, b.kvReserved, b.outTok = 0, 0, 0
	b.draining = false
}
