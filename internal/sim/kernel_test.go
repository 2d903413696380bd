package sim

import (
	"testing"

	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/rates"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// TestKernelReferenceEquivalence is the correctness anchor of the
// devirtualized contact kernel: the reference wrappers (see reference)
// replay the pre-optimization path — Next-per-contact streaming,
// interface utility dispatch, hooks always invoked — so for every
// policy, utility family and contact path the fast kernel's Result
// digest must be bit-identical to the reference run's. Each sub-test
// builds both configs from the same inputs and compares digests.
func TestKernelReferenceEquivalence(t *testing.T) {
	policies := []struct {
		name string
		pol  func() core.Policy
	}{
		{"static", func() core.Policy { return core.Static{Label: "uni"} }},
		{"qcr", func() core.Policy {
			return &core.QCR{
				Reaction:       core.TunedReaction(utility.Step{Tau: 10}, 0.05, 12, 1),
				MandateRouting: true,
				StrictSource:   true,
				Seed:           7,
			}
		}},
	}
	utilities := []struct {
		name string
		mod  func(*Config)
	}{
		{"step", func(c *Config) { c.Utility = utility.Step{Tau: 10} }},
		{"exp", func(c *Config) { c.Utility = utility.Exponential{Nu: 0.2} }},
		// Power (α > 1) and NegLog have unbounded h(0⁺), so they require
		// the dedicated-node case; mixing all four families per item also
		// exercises the per-item kernel table.
		{"mixed", func(c *Config) {
			c.ServerCount = 4 // 4·ρ slots ≥ the 10-item catalog
			fams := []utility.Function{
				utility.Step{Tau: 10}, utility.Exponential{Nu: 0.2},
				utility.Power{Alpha: 2}, utility.NegLog{},
			}
			items := c.Pop.Items()
			c.Utilities = make([]utility.Function, items)
			for i := range c.Utilities {
				c.Utilities[i] = fams[i%len(fams)]
			}
		}},
	}
	tr := smallTrace(t, 12, 0.05, 800, 9)
	// Each path hands out a fresh source per run: a stream's RNG state
	// mutates as it drains.
	paths := []struct {
		name string
		run  func(t *testing.T, cfg Config, ref bool) *Result
	}{
		{"materialized", func(t *testing.T, cfg Config, ref bool) *Result {
			return runOne(t, cfg, viewSource(tr.Source(), ref))
		}},
		{"streaming", func(t *testing.T, cfg Config, ref bool) *Result {
			src, err := contact.NewHomogeneousStream(12, 0.05, 800, newRNG(9))
			if err != nil {
				t.Fatalf("NewHomogeneousStream: %v", err)
			}
			return runOne(t, cfg, viewSource(src, ref))
		}},
		{"batch", func(t *testing.T, cfg Config, ref bool) *Result {
			src, err := contact.NewReplayStream(trace.UniformRates(12, 0.05), 800, 9, 12)
			if err != nil {
				t.Fatalf("NewReplayStream: %v", err)
			}
			res, err := RunBatchSharded([]Config{cfg}, viewSource(src, ref), 1)
			if err != nil {
				t.Fatalf("RunBatchSharded: %v", err)
			}
			return res[0]
		}},
	}
	for _, pc := range policies {
		for _, uc := range utilities {
			for _, path := range paths {
				t.Run(pc.name+"/"+uc.name+"/"+path.name, func(t *testing.T) {
					mk := func(ref bool) Config {
						cfg := baseConfig(t, pc.pol())
						cfg.BinWidth = 80
						cfg.RecordCounts = true
						uc.mod(&cfg)
						if ref {
							cfg = reference(cfg)
						}
						return cfg
					}
					ref := path.run(t, mk(true), true)
					fast := path.run(t, mk(false), false)
					if ref.Digest() != fast.Digest() {
						t.Errorf("fast kernel digest %#x != reference %#x", fast.Digest(), ref.Digest())
					}
				})
			}
		}
	}
}

// TestBatchedStreamZeroAllocSteadyState pins the streaming-batched hot
// path: once warm, filling the reusable contact buffer from a live
// generator and stepping every contact performs no steady-state heap
// allocation. Each measured call processes one full batch, so the bound
// is per 4096 contacts.
func TestBatchedStreamZeroAllocSteadyState(t *testing.T) {
	const (
		nodes    = 8
		items    = 6
		duration = 1e12
	)
	src, err := contact.NewHomogeneousStream(nodes, 0.05, duration, newRNG(5))
	if err != nil {
		t.Fatalf("NewHomogeneousStream: %v", err)
	}
	cfg := Config{
		Rho:        3,
		Utility:    utility.Step{Tau: 10},
		Pop:        demand.Pareto(items, 1, 2),
		Policy:     core.Static{Label: "uni"},
		Seed:       5,
		WarmupFrac: -1,
	}
	r, err := newRunner(&cfg, nodes, duration)
	if err != nil {
		t.Fatalf("newRunner: %v", err)
	}
	buf := make([]trace.Contact, contactBatchSize)
	batchOne := func() {
		n := trace.FillBatch(src, buf)
		if n == 0 {
			t.Fatal("stream exhausted mid-test")
		}
		for i := range buf[:n] {
			if err := r.step(buf[i]); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		batchOne() // warm every request queue to steady-state capacity
	}
	// Tolerates a rare one-off queue growth; anything systematic (even one
	// allocation per contact would read as ≥ 4096) fails loudly.
	if avg := testing.AllocsPerRun(50, batchOne); avg > 0.5 {
		t.Errorf("batched stream steady state allocates %.2f objects/batch, want 0", avg)
	}
}

// TestShardedSourceZeroAllocSteadyState pins the structured-rates bulk
// path: draining a community model through ShardedSource.NextBatch and
// stepping the contacts is allocation-free once warm — the loser tree,
// group samplers and runner all reuse their state.
func TestShardedSourceZeroAllocSteadyState(t *testing.T) {
	const (
		nodes    = 64
		items    = 6
		duration = 1e12
	)
	m, err := rates.NewCommunity(rates.CommunityConfig{
		Nodes: nodes, Communities: 4, In: 0.1, Out: 0.01,
	})
	if err != nil {
		t.Fatalf("NewCommunity: %v", err)
	}
	src, err := rates.NewSharded(m, duration, 11, 0)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	cfg := Config{
		Rho:        3,
		Utility:    utility.Step{Tau: 10},
		Pop:        demand.Pareto(items, 1, 2),
		Policy:     core.Static{Label: "uni"},
		Seed:       5,
		WarmupFrac: -1,
	}
	r, err := newRunner(&cfg, nodes, duration)
	if err != nil {
		t.Fatalf("newRunner: %v", err)
	}
	buf := make([]trace.Contact, contactBatchSize)
	batchOne := func() {
		n := trace.FillBatch(src, buf)
		if n == 0 {
			t.Fatal("sharded source exhausted mid-test")
		}
		for i := range buf[:n] {
			if err := r.step(buf[i]); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		batchOne()
	}
	if avg := testing.AllocsPerRun(50, batchOne); avg > 0.5 {
		t.Errorf("sharded bulk steady state allocates %.2f objects/batch, want 0", avg)
	}
}
