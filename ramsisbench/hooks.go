package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/serve"
)

// driftEvent is one confirmed drift: when the selector call that confirmed
// it started, whether it needed a re-solve (a cache miss) or was served
// from the policy cache, and when its swap was first seen.
type driftEvent struct {
	at, swapped time.Time
	resolve     bool
}

// driftClock times drift-to-swap from outside the adapter, from deltas of
// Adapter.Stats: a selector call during which CacheHits or CacheMisses
// rises confirmed a drift (a miss starts a background re-solve), and the
// first observation in which Swaps has risen ends it. Selections that
// start while a drift awaits its swap ran on a stale policy.
type driftClock struct {
	mu           sync.Mutex
	hits, misses uint64
	swaps        uint64
	open, done   []driftEvent
	stale        int
}

// selection records one selector call that ran from start to end; after
// is the adapter's Stats read when it returned.
func (c *driftClock) selection(after adapt.Stats, start, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.open) > 0 {
		c.stale++
	}
	c.note(after, start, end)
}

// poll records a Stats read taken outside any selector call at now.
func (c *driftClock) poll(s adapt.Stats, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.note(s, now, now)
}

func (c *driftClock) note(s adapt.Stats, confirmed, seen time.Time) {
	for ; c.hits < s.CacheHits; c.hits++ {
		c.open = append(c.open, driftEvent{at: confirmed})
	}
	for ; c.misses < s.CacheMisses; c.misses++ {
		c.open = append(c.open, driftEvent{at: confirmed, resolve: true})
	}
	// The adapter handles one drift at a time, so swaps land in the order
	// their drifts were confirmed.
	for ; c.swaps < s.Swaps && len(c.open) > 0; c.swaps++ {
		ev := c.open[0]
		c.open = c.open[1:]
		ev.swapped = seen
		c.done = append(c.done, ev)
	}
}

// resolveSeconds returns the drift-to-swap time of every completed
// re-solve (cache hits excluded) and the number of cache-hit swaps.
func (c *driftClock) resolveSeconds() (secs []float64, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range c.done {
		if ev.resolve {
			secs = append(secs, ev.swapped.Sub(ev.at).Seconds())
		} else {
			hits++
		}
	}
	return secs, hits
}

// clocked wraps the program's adaptive selector so every call feeds the
// drift clock; it adds two Stats reads per batch decision and nothing else.
func clocked(sel serve.SelectFunc, a *adapt.Adapter, c *driftClock) serve.SelectFunc {
	return func(now, load float64, n int, slack float64) (string, int) {
		start := time.Now()
		m, b := sel(now, load, n, slack)
		c.selection(a.Stats(), start, time.Now())
		return m, b
	}
}

// selectStats accumulates the traced selector's per-call measurements.
type selectStats struct {
	mu                    sync.Mutex
	selectNs, observeNs   []float64
	batchSum, accuracySum float64
	calls                 int
}

// tracedSelector is serve.AdaptiveSelector composed from the adapter's
// public calls — Observe, PolicyFor, Policy.Select, the batch clamp — so
// the traced run can time the drift detector apart from the policy
// lookup. TestTracedSelectorMatchesProgram holds the two to the same
// choices.
func tracedSelector(a *adapt.Adapter, models profile.Set, tr *tracer, st *selectStats) serve.SelectFunc {
	return func(now, load float64, n int, slack float64) (string, int) {
		t0 := time.Now()
		root := tr.open("core.select", -1, -1, t0)
		a.Observe(now, load)
		t1 := time.Now()
		pol := a.PolicyFor(load)
		if pol == nil {
			panic(fmt.Sprintf("ramsisbench: adapter has no policy for load %v", load))
		}
		c := pol.Select(n, slack)
		b := c.Batch
		if b > n {
			b = n
		}
		t2 := time.Now()
		tr.add("adapt.observe", -1, root, t0, t1)
		tr.add("core.policy_select", -1, root, t1, t2)
		tr.close(root, t2)
		acc := 0.0
		if p, ok := models.ByName(c.Model); ok {
			acc = p.Accuracy
		}
		st.mu.Lock()
		st.selectNs = append(st.selectNs, float64(t2.Sub(t0)))
		st.observeNs = append(st.observeNs, float64(t1.Sub(t0)))
		st.batchSum += float64(b)
		st.accuracySum += acc
		st.calls++
		st.mu.Unlock()
		return c.Model, b
	}
}

// timedBalancer records each pick's duration and the spread of the
// outstanding counts it saw (max − min across workers).
type timedBalancer struct {
	lb.Balancer
	tr     *tracer
	mu     sync.Mutex
	pickNs []float64
	spread []float64
}

func (b *timedBalancer) Pick(lens []int, healthy []bool) int {
	t0 := time.Now()
	w := b.Balancer.Pick(lens, healthy)
	t1 := time.Now()
	b.tr.add("lb.pick", -1, b.tr.current(), t0, t1)
	lo, hi := lens[0], lens[0]
	for _, l := range lens[1:] {
		lo, hi = min(lo, l), max(hi, l)
	}
	b.mu.Lock()
	b.pickNs = append(b.pickNs, float64(t1.Sub(t0)))
	b.spread = append(b.spread, float64(hi-lo))
	b.mu.Unlock()
	return w
}

// timedMonitor records monitor calls and how far the monitored rate sits
// from the offered one. The frontend calls Load right after Observe on the
// enqueue path (under its own lock) and alone on the dispatch path, so a
// Load that follows an Observe belongs to the enqueue in progress.
type timedMonitor struct {
	monitor.Monitor
	tr          *tracer
	offered     func(time.Time) float64
	afterObserv atomic.Bool
	mu          sync.Mutex
	rateErr     []float64 // |monitored − offered| / offered
}

func (m *timedMonitor) Observe(t float64) {
	t0 := time.Now()
	m.Monitor.Observe(t)
	m.tr.add("monitor.observe", -1, m.tr.current(), t0, time.Now())
	m.afterObserv.Store(true)
}

func (m *timedMonitor) Load(t float64) float64 {
	t0 := time.Now()
	v := m.Monitor.Load(t)
	t1 := time.Now()
	if m.afterObserv.Swap(false) {
		m.tr.add("monitor.load", -1, m.tr.current(), t0, t1)
	}
	if off := m.offered(t1); off > 0 {
		e := (v - off) / off
		if e < 0 {
			e = -e
		}
		m.mu.Lock()
		m.rateErr = append(m.rateErr, e)
		m.mu.Unlock()
	}
	return v
}
