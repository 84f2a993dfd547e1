package core

import (
	"math"
	"testing"

	"ramsis/internal/dist"
	"ramsis/internal/llm"
	"ramsis/internal/mdp"
	"ramsis/internal/profile"
)

// coldJacobi is the policy-identity oracle: the worker MDP solved from zeros
// by the byte-pinned float64 Jacobi kernel, the plain value iteration the
// warm-started default must reproduce.
func coldJacobi(t *testing.T, cfg Config) *Policy {
	t.Helper()
	cfg = cfg.withDefaults()
	b, m, err := buildWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm := mdp.Compile(m)
	res, err := cm.Solve(mdp.SolveOptions{Gamma: cfg.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := newPolicy(cfg, b.sp, cm, res)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// expectSame fails unless two expectations agree within 1e-9.
func expectSame(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %.12g, cold Jacobi %.12g", name, got, want)
	}
}

// The warm-started default value iteration must reproduce the cold Jacobi
// oracle's decision in every state, and its §5.1 expectations, on the
// configurations the serving planes and the benchmark generate for: the
// live image plane (4 workers, D=100), the sharded gateway's two tenants
// (2 workers, D=20) and the unit-test worker with each balancing, batching
// and discretization variant, including a 3× queue space.
func TestGenerateMatchesColdJacobi(t *testing.T) {
	image := profile.ImageSet()
	live := func(load float64) Config {
		return Config{Models: image, SLO: 0.150, Workers: 4, Arrival: dist.NewPoisson(load), D: 100}
	}
	gateway := func(slo float64) Config {
		return Config{Models: image, SLO: slo, Workers: 2, Arrival: dist.NewPoisson(120), D: 20}
	}
	variant := func(mutate func(*Config)) Config {
		cfg := genConfig(300)
		mutate(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		slow bool
	}{
		{"image-live-40qps", live(40), true},
		{"image-live-80qps", live(80), true},
		{"image-live-120qps", live(120), true},
		{"gateway-150ms", gateway(0.150), false},
		{"gateway-400ms", gateway(0.400), false},
		{"gen300", genConfig(300), false},
		{"gen300-sqf", variant(func(c *Config) { c.Balancing = ShortestQueueFirst }), false},
		{"gen300-p2c", variant(func(c *Config) { c.Balancing = PowerOfTwoChoices }), false},
		{"gen300-variable", variant(func(c *Config) { c.Batching = VariableBatching }), false},
		{"gen300-md", variant(func(c *Config) { c.Disc = ModelBased }), false},
		{"gen300-queue96", variant(func(c *Config) { c.MaxQueue = 96 }), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("cold Jacobi on this space takes seconds")
			}
			want := coldJacobi(t, c.cfg)
			got, err := Generate(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Choices) != len(want.Choices) {
				t.Fatalf("state counts differ: %d vs %d", len(got.Choices), len(want.Choices))
			}
			for s := range want.Choices {
				if got.Choices[s] != want.Choices[s] {
					t.Fatalf("state %d: choice %+v, cold Jacobi %+v", s, got.Choices[s], want.Choices[s])
				}
			}
			expectSame(t, "ExpectedViolation", got.ExpectedViolation, want.ExpectedViolation)
			expectSame(t, "ExpectedAccuracy", got.ExpectedAccuracy, want.ExpectedAccuracy)
			t.Logf("%d states: %d iterations, cold Jacobi %d", len(got.Choices), got.Iterations, want.Iterations)
		})
	}
}

// The token policy of the LLM burst scenario (2 workers, 8 QPS, 8 s SLO,
// general-class lengths) must equal its cold Jacobi solve.
func TestGenerateLLMMatchesColdJacobi(t *testing.T) {
	cls := llm.GeneralClass()
	cfg := LLMConfig{Models: llm.BuiltinSet(), SLO: 8, Workers: 2, Rate: 8, In: cls.In, Out: cls.Out}.withDefaults()
	lm, err := buildLLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm := mdp.Compile(lm.m)
	res, err := cm.Solve(mdp.SolveOptions{Gamma: cfg.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	want := lm.policy(cfg, cm, res)
	got, err := GenerateLLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.Choices {
		if got.Choices[s] != want.Choices[s] {
			t.Fatalf("state %d: choice %+v, cold Jacobi %+v", s, got.Choices[s], want.Choices[s])
		}
	}
	expectSame(t, "ExpectedViolation", got.ExpectedViolation, want.ExpectedViolation)
	expectSame(t, "ExpectedAccuracy", got.ExpectedAccuracy, want.ExpectedAccuracy)
	t.Logf("%d states: %d iterations, cold Jacobi %d", len(got.Choices), got.Iterations, want.Iterations)
}
