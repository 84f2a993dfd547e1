package llm

import (
	"math"
	"math/rand"
	"testing"
)

// scriptSelector replays a byte script, one byte per step boundary and
// cycling: each byte picks a model index in [-1, len(models)], so the
// script exercises keeps, immediate switches, drains and out-of-range
// answers.
type scriptSelector struct {
	script []byte
	n      int // models in the set
	calls  int
}

func (s *scriptSelector) SelectModel(int, int, float64, float64) int {
	c := s.script[s.calls%len(s.script)]
	s.calls++
	return int(c)%(s.n+2) - 1
}

func (s *scriptSelector) Name() string { return "script" }

// checker drives one Batcher in event time and checks its events and its
// state at every step boundary.
type checker struct {
	t       *testing.T
	b       *Batcher
	queries []Seq

	tokens             []int // output tokens landed per sequence
	finished, rejected []int
	prefillScheduled   int
	tokensLanded       int
}

func (c *checker) Reject(s *Seq, m StepModel) {
	if s.Prefill+s.Decode <= m.KVCapTokens {
		c.t.Errorf("seq %d (%d tokens) rejected by %s with KV capacity %d", s.ID, s.Prefill+s.Decode, m.Name, m.KVCapTokens)
	}
	c.rejected[s.ID]++
}

func (c *checker) Token(s *Seq, first bool, at float64) {
	if first != (c.tokens[s.ID] == 0) {
		c.t.Errorf("seq %d: token %d reported first=%v", s.ID, c.tokens[s.ID]+1, first)
	}
	if !first && at < s.LastTokenAt {
		c.t.Errorf("seq %d: token at %v before the previous one at %v", s.ID, at, s.LastTokenAt)
	}
	c.tokens[s.ID]++
	c.tokensLanded++
}

func (c *checker) Finish(s *Seq, m StepModel, batch int, at float64) {
	if c.tokens[s.ID] != s.Decode {
		c.t.Errorf("seq %d finished after %d of %d output tokens", s.ID, c.tokens[s.ID], s.Decode)
	}
	if batch < 1 || batch > m.MaxSeqs {
		c.t.Errorf("seq %d finished in a step of %d sequences on %s (max %d)", s.ID, batch, m.Name, m.MaxSeqs)
	}
	if !(s.Arrival <= s.AdmitAt && s.AdmitAt <= s.FirstTokenAt && s.FirstTokenAt <= at) {
		c.t.Errorf("seq %d: times out of order: arrival %v admit %v first %v finish %v",
			s.ID, s.Arrival, s.AdmitAt, s.FirstTokenAt, at)
	}
	c.finished[s.ID]++
}

func (c *checker) Switch(from, to int, _ float64) {
	if from == to || len(c.b.running) > 0 {
		c.t.Errorf("switch %d -> %d with %d sequences running", from, to, len(c.b.running))
	}
}

// checkKV asserts kvUsed ≤ kvReserved ≤ the serving model's capacity.
func (c *checker) checkKV(where string) {
	b := c.b
	if cap := b.models.Models[b.model].KVCapTokens; b.kvUsed < 0 || b.kvUsed > b.kvReserved || b.kvReserved > cap {
		c.t.Fatalf("%s: kvUsed %d, kvReserved %d, cap %d", where, b.kvUsed, b.kvReserved, cap)
	}
}

// run replays the queries to completion and checks the run's totals.
func (c *checker) run() {
	b := c.b
	busy, stepEnd := false, math.Inf(1)
	begin := func(now float64) {
		st, ok := b.Begin(now)
		c.checkKV("begin")
		if !ok {
			if !b.Idle() {
				c.t.Fatalf("no step begun at %v with %d waiting: the queue head is stuck", now, len(b.waiting))
			}
			busy, stepEnd = false, math.Inf(1)
			return
		}
		if st.Prefill+st.Decode < 1 || st.Prefill+st.Decode > st.Model.StepBudget() {
			c.t.Fatalf("step schedules %d prefill + %d decode tokens over %d sequences (budget %d)",
				st.Prefill, st.Decode, len(b.running), st.Model.StepBudget())
		}
		c.prefillScheduled += st.Prefill
		busy, stepEnd = true, now+st.Model.StepTime(st.Prefill, st.Decode, st.KV)
	}
	qi, steps := 0, 0
	for qi < len(c.queries) || busy {
		if qi < len(c.queries) && c.queries[qi].Arrival <= stepEnd {
			b.Enqueue(c.queries[qi])
			if !busy {
				begin(c.queries[qi].Arrival)
			}
			qi++
			continue
		}
		b.Land(stepEnd)
		c.checkKV("land")
		begin(stepEnd)
		if steps++; steps > 1_000_000 {
			c.t.Fatal("run did not terminate")
		}
	}

	if !b.Idle() || b.outTok != 0 || b.kvUsed != 0 || b.kvReserved != 0 {
		c.t.Fatalf("drained batcher holds waiting %d running %d outTok %d kvUsed %d kvReserved %d",
			len(b.waiting), len(b.running), b.outTok, b.kvUsed, b.kvReserved)
	}
	prefill, decode := 0, 0
	for id, q := range c.queries {
		if c.finished[id]+c.rejected[id] != 1 {
			c.t.Errorf("seq %d finished %d times and rejected %d times", id, c.finished[id], c.rejected[id])
		}
		if c.finished[id] == 1 {
			prefill += max(q.Prefill, 1)
			decode += max(q.Decode, 1)
		}
	}
	if c.prefillScheduled != prefill {
		c.t.Errorf("scheduled %d prefill tokens, finished sequences hold %d", c.prefillScheduled, prefill)
	}
	if c.tokensLanded != decode {
		c.t.Errorf("landed %d output tokens, finished sequences asked for %d", c.tokensLanded, decode)
	}
}

// checkBatcher builds a random workload from seed — arrivals, lengths
// (zeros included, to exercise clamping) and step limits — and replays it
// under the KV cap (0 keeps the builtin capacities) and the selector
// script (empty pins the most accurate model).
func checkBatcher(t *testing.T, seed int64, kvCap uint16, script []byte) {
	rng := rand.New(rand.NewSource(seed))
	models := BuiltinSet().WithKVCap(int(kvCap))
	for i := range models.Models {
		if rng.Intn(2) == 0 {
			models.Models[i].MaxStepTokens = 1 << rng.Intn(9)
			models.Models[i].MaxSeqs = 1 + rng.Intn(8)
		}
	}
	n := 1 + rng.Intn(60)
	gap := rng.ExpFloat64() * 0.2
	queries := make([]Seq, n)
	at := 0.0
	for i := range queries {
		at += rng.ExpFloat64() * gap
		// Log-spread lengths: long prompts, and tiny ones whose prefills
		// finish together and crowd the decode budget.
		queries[i] = Seq{ID: i, Arrival: at,
			Prefill: rng.Intn(1 + 3000>>rng.Intn(12)), Decode: rng.Intn(1 + 120>>rng.Intn(7))}
	}
	var sel Selector
	if len(script) > 0 {
		sel = &scriptSelector{script: script, n: models.Len()}
	}
	c := &checker{t: t, queries: queries,
		tokens: make([]int, n), finished: make([]int, n), rejected: make([]int, n)}
	c.b = NewBatcher(models, 4.0, sel, c)
	c.run()
}

// TestBatcherInvariants replays random workloads, KV caps and selector
// scripts through the Batcher and checks its invariants at every step
// boundary.
func TestBatcherInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		seed := rng.Int63()
		kvCap := uint16(rng.Intn(3) * rng.Intn(8000))
		script := make([]byte, rng.Intn(6))
		rng.Read(script)
		checkBatcher(t, seed, kvCap, script)
		if t.Failed() {
			t.Fatalf("failing case: seed %d kvCap %d script %v", seed, kvCap, script)
		}
	}
}

// FuzzBatcher is TestBatcherInvariants under the fuzzer; plain go test
// replays the committed corpus in testdata/fuzz/FuzzBatcher.
func FuzzBatcher(f *testing.F) {
	f.Fuzz(checkBatcher)
}
