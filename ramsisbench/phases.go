package main

import (
	"fmt"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/mdp"
)

// phaseTimes is one policy build split at the control plane's public
// phase boundaries: transitions (core.BuildWorkerMDP), compile
// (mdp.Compile), solve (Compiled.Solve) and expectations
// (Compiled.StationaryDistribution, the pass core.Generate runs for the
// §5.1 guarantees).
type phaseTimes struct {
	transitions, compile, solve, expectations time.Duration
	iterations, states, transitionCount       int
}

func (p phaseTimes) total() time.Duration {
	return p.transitions + p.compile + p.solve + p.expectations
}

// meanPhases averages phase times over runs of one configuration.
func meanPhases(runs []phaseTimes) phaseTimes {
	var m phaseTimes
	for _, r := range runs {
		m.transitions += r.transitions / time.Duration(len(runs))
		m.compile += r.compile / time.Duration(len(runs))
		m.solve += r.solve / time.Duration(len(runs))
		m.expectations += r.expectations / time.Duration(len(runs))
	}
	last := runs[len(runs)-1]
	m.iterations, m.states, m.transitionCount = last.iterations, last.states, last.transitionCount
	return m
}

// buildPhases times the four phases on cfg with the given solve method,
// warm-started from init when it is non-nil, recording one span per phase
// under a root named name.
func buildPhases(tr *tracer, name string, trace int64, cfg core.Config, method mdp.Method, init []float64) (phaseTimes, error) {
	var p phaseTimes
	t0 := time.Now()
	root := tr.open(name, trace, -1, t0)
	m, err := core.BuildWorkerMDP(cfg)
	if err != nil {
		return p, fmt.Errorf("build transitions: %w", err)
	}
	t1 := time.Now()
	cm := mdp.Compile(m)
	t2 := time.Now()
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 0.99 // core.Config's default discount
	}
	opts := mdp.SolveOptions{Gamma: gamma, Method: method}
	if len(init) == cm.NumStates() {
		opts.InitialValues = init
	}
	res, err := cm.Solve(opts)
	if err != nil {
		return p, fmt.Errorf("solve: %w", err)
	}
	t3 := time.Now()
	// The same tolerance and iteration cap core.Generate's expectation
	// pass uses.
	if _, err := cm.StationaryDistribution(res.Policy, 1e-13, 0); err != nil {
		return p, fmt.Errorf("stationary distribution: %w", err)
	}
	t4 := time.Now()
	tr.add("core.transitions", trace, root, t0, t1)
	tr.add("mdp.compile", trace, root, t1, t2)
	tr.add("mdp.solve", trace, root, t2, t3)
	tr.add("core.expectations", trace, root, t3, t4)
	tr.close(root, t4)
	return phaseTimes{
		transitions: t1.Sub(t0), compile: t2.Sub(t1), solve: t3.Sub(t2), expectations: t4.Sub(t3),
		iterations: res.Iterations, states: cm.NumStates(), transitionCount: cm.NumTransitions(),
	}, nil
}

// samePolicy reports whether two generated policies choose the same action
// in every state, and the first state where they differ.
func samePolicy(a, b *core.Policy) (bool, string) {
	if len(a.Choices) != len(b.Choices) {
		return false, fmt.Sprintf("state counts differ: %d vs %d", len(a.Choices), len(b.Choices))
	}
	for s := range a.Choices {
		ca, cb := a.Choices[s], b.Choices[s]
		if ca.Arrival != cb.Arrival || ca.Model != cb.Model || ca.Batch != cb.Batch {
			return false, fmt.Sprintf("state %d: %+v vs %+v", s, ca, cb)
		}
	}
	return true, ""
}
