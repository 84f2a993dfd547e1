package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request (or
// one control-plane operation) share a Trace ID; Parent is the index of
// the span that caused this one within the tracer, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory for the traced run; a nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// call is the span of the program call the generator has in progress,
	// so hooks the program invokes inside that call (a balancer pick, a
	// monitor observation) record as its children.
	call atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.call.Store(-1)
	return t
}

// enter marks span i as the generator's call in progress (-1: none).
func (t *tracer) enter(i int) {
	if t != nil {
		t.call.Store(int64(i))
	}
}

// current returns the generator's call in progress, or -1.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	return int(t.call.Load())
}

// open starts a span at start and returns its index for children to cite
// and for close. A parent is opened before its children, so a parent's
// index is always below theirs. Until closed, a span has zero length.
func (t *tracer) open(name string, trace int64, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	at := int64(start.Sub(t.epoch))
	t.mu.Lock()
	if trace < 0 && parent >= 0 {
		trace = t.spans[parent].Trace // a hook span joins its caller's request
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: at, End: at})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// close ends span i at end.
func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, trace int64, parent int, start, end time.Time) int {
	i := t.open(name, trace, parent, start)
	t.close(i, end)
	return i
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line, with its index as "id".
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// blockingSelfTimes sums, per root kind and per span name, the self time
// of every span in each root's tree: a span's duration minus the part of
// its interval its children cover. A tree is one blocking path: the
// children of one span are sequential steps it waited on (a request's
// generator lateness, enqueue and in-flight time; a policy build's
// transitions, compile, solve and expectations), so the self times of a
// tree add up to its root's duration. roots counts the trees of each kind,
// so callers can report a mean per request.
func blockingSelfTimes(spans []span) (self map[string]map[string]time.Duration, roots map[string]int) {
	children := make([][]int, len(spans))
	rootOf := make([]int, len(spans))
	self = map[string]map[string]time.Duration{}
	roots = map[string]int{}
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < i {
			children[s.Parent] = append(children[s.Parent], i)
			rootOf[i] = rootOf[s.Parent]
		} else {
			rootOf[i] = i
			roots[s.Name]++
		}
	}
	for i, s := range spans {
		kind := spans[rootOf[i]].Name
		if self[kind] == nil {
			self[kind] = map[string]time.Duration{}
		}
		self[kind][s.Name] += time.Duration(s.End-s.Start) - covered(spans, s, children[i])
	}
	return self, roots
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(spans []span, parent span, kids []int) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// printSelfTimes prints, for each kind of tree, each layer's self time
// along that blocking path as a mean per tree and as a share of the tree.
func printSelfTimes(w io.Writer, spans []span) {
	self, roots := blockingSelfTimes(spans)
	kinds := make([]string, 0, len(self))
	for k := range self {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "self time along the blocking path (%d spans)\n", len(spans))
	for _, k := range kinds {
		layers := self[k]
		names := make([]string, 0, len(layers))
		var total time.Duration
		for n, d := range layers {
			names = append(names, n)
			total += d
		}
		sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
		fmt.Fprintf(w, "  %s (%d trees, mean %.3f ms each)\n", k, roots[k], float64(total)/1e6/float64(roots[k]))
		for _, n := range names {
			fmt.Fprintf(w, "    %-26s %12.4f ms/tree  %5.1f%%\n", n,
				float64(layers[n])/1e6/float64(roots[k]), 100*float64(layers[n])/float64(max(total, 1)))
		}
	}
}
