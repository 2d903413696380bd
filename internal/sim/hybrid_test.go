package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/rates"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// hybridModel is the shared two-community test model.
func hybridModel(t *testing.T, n int) *rates.Model {
	t.Helper()
	m, err := rates.New([]int{n / 2, n / 2}, [][]float64{{0.02, 0.004}, {0.004, 0.03}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func hybridStaticConfig(n int) Config {
	pop := demand.Pareto(24, 1, 0.04*float64(n))
	return Config{
		Rho:      3,
		Utility:  utility.Step{Tau: 10},
		Pop:      pop,
		Policy:   core.Static{Label: "UNI"},
		NoSticky: true,
		Seed:     11,
	}
}

func hybridQCRConfig(t *testing.T, n int, mu float64) (Config, float64) {
	t.Helper()
	pop := demand.Pareto(24, 1, 0.04*float64(n))
	u := utility.Step{Tau: 10}
	h := welfare.Homogeneous{Utility: u, Pop: pop, Mu: mu, Servers: n, Clients: n}
	scale, err := h.ReactionScale(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rho: 3, Utility: u, Pop: pop,
		Policy: &core.QCR{
			Reaction:       core.TunedReaction(u, mu, n, scale),
			MandateRouting: true, StrictSource: true, MaxMandates: n / 10,
			Seed: 17,
		},
		Seed: 11,
	}, scale
}

func TestHybridDeterminism(t *testing.T) {
	m := hybridModel(t, 200)
	run := func(contactSeed uint64) *Result {
		cfg, scale := hybridQCRConfig(t, 200, m.MeanPairRate())
		r, err := RunHybrid(cfg, m, 800, HybridOptions{ContactSeed: contactSeed, ReactionScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(5), run(5)
	if a.Digest() != b.Digest() {
		t.Errorf("same seeds, digests %#x vs %#x", a.Digest(), b.Digest())
	}
	if c := run(6); c.Digest() == a.Digest() {
		t.Error("different contact seed, same digest")
	}
	if a.Hybrid == nil || a.Hybrid.FellBack {
		t.Fatalf("expected fluid run, tally %+v", a.Hybrid)
	}
	if a.Hybrid.FluidNodes+a.Hybrid.BoundaryNodes != 200 {
		t.Errorf("tally splits %d+%d nodes, want 200", a.Hybrid.FluidNodes, a.Hybrid.BoundaryNodes)
	}
}

func TestHybridRejectsBadConfig(t *testing.T) {
	m := hybridModel(t, 200)
	base := hybridStaticConfig(200)
	cases := []struct {
		name string
		mut  func(*Config) (mo *rates.Model, dur float64)
	}{
		{"nil-model", func(c *Config) (*rates.Model, float64) { return nil, 100 }},
		{"zero-duration", func(c *Config) (*rates.Model, float64) { return m, 0 }},
		{"nan-duration", func(c *Config) (*rates.Model, float64) { return m, math.NaN() }},
		{"nil-policy", func(c *Config) (*rates.Model, float64) { c.Policy = nil; return m, 100 }},
		{"nil-utility", func(c *Config) (*rates.Model, float64) { c.Utility = nil; return m, 100 }},
		{"empty-pop", func(c *Config) (*rates.Model, float64) { c.Pop = demand.Popularity{}; return m, 100 }},
		{"zero-rho", func(c *Config) (*rates.Model, float64) { c.Rho = 0; return m, 100 }},
		{"warmup-1", func(c *Config) (*rates.Model, float64) { c.WarmupFrac = 1; return m, 100 }},
		{"short-initial", func(c *Config) (*rates.Model, float64) { c.Initial = alloc.Counts{1}; return m, 100 }},
		{"p2p-unbounded-h0", func(c *Config) (*rates.Model, float64) {
			c.Utility = utility.NegLog{}
			return m, 100
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			mo, dur := tc.mut(&cfg)
			if _, err := RunHybrid(cfg, mo, dur, HybridOptions{}); err == nil {
				t.Fatal("invalid hybrid config accepted")
			}
		})
	}
}

// TestHybridFallbackReasons pins the configurations the fluid cannot
// represent: each must fall back to the full event path with a tally
// naming the reason, not error out.
func TestHybridFallbackReasons(t *testing.T) {
	m := hybridModel(t, 60)
	weighted := func() *rates.Model {
		w := make([]float64, 60)
		for i := range w {
			w[i] = 1 + float64(i%3)
		}
		wm, err := rates.New([]int{30, 30}, [][]float64{{0.02, 0.004}, {0.004, 0.03}}, w)
		if err != nil {
			t.Fatal(err)
		}
		return wm
	}
	cases := []struct {
		name   string
		mut    func(*Config) *rates.Model
		reason string
	}{
		{"faults", func(c *Config) *rates.Model {
			c.Faults = &faults.Config{ChurnRate: 0.01, MeanDowntime: 5, Seed: 3}
			return m
		}, "fault"},
		{"adversary", func(c *Config) *rates.Model {
			c.Adversary = &adversary.Config{DishonestFrac: 0.2, Mult: 4, Seed: 3}
			return m
		}, "adversary"},
		{"dedicated-servers", func(c *Config) *rates.Model { c.ServerCount = 10; return m }, "dedicated"},
		{"per-item-utilities", func(c *Config) *rates.Model {
			c.Utilities = make([]utility.Function, c.Pop.Items())
			return m
		}, "per-item"},
		{"record-delays", func(c *Config) *rates.Model { c.RecordDelays = true; return m }, "instrumentation"},
		{"weighted-nodes", func(c *Config) *rates.Model { return weighted() }, "weights"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hybridStaticConfig(60)
			mo := tc.mut(&cfg)
			r, err := RunHybrid(cfg, mo, 200, HybridOptions{ContactSeed: 9})
			if err != nil {
				t.Fatal(err)
			}
			tally := r.Hybrid
			if tally == nil || !tally.FellBack {
				t.Fatalf("expected fallback, tally %+v", tally)
			}
			if !strings.Contains(tally.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", tally.Reason, tc.reason)
			}
			if tally.FluidFraction != 0 {
				t.Errorf("fluid fraction %g after fallback", tally.FluidFraction)
			}
		})
	}
}

// TestHybridFallbackMatchesFullRun: a fallback result must be exactly
// the full event simulation over the model's sharded source with the
// hybrid contact seed — same welfare, same counts.
func TestHybridFallbackMatchesFullRun(t *testing.T) {
	m := hybridModel(t, 60)
	cfg := hybridStaticConfig(60)
	cfg.RecordDelays = true // forces fallback without touching dynamics
	hyRes, err := RunHybrid(cfg, m, 300, HybridOptions{ContactSeed: 21})
	if err != nil {
		t.Fatal(err)
	}
	src, err := rates.NewSharded(m, 300, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := Run(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if hyRes.AvgUtilityRate != refRes.AvgUtilityRate || hyRes.Fulfillments != refRes.Fulfillments {
		t.Errorf("fallback diverged from direct run: U %g vs %g, fulfillments %d vs %d",
			hyRes.AvgUtilityRate, refRes.AvgUtilityRate, hyRes.Fulfillments, refRes.Fulfillments)
	}
	// The tally is the only difference: gating it on nil keeps plain
	// runs digest-identical, so the fallback digest must differ only
	// through the tally.
	tally := hyRes.Hybrid
	hyRes.Hybrid = nil
	if hyRes.Digest() != refRes.Digest() {
		t.Errorf("fallback result digests %#x, direct run %#x", hyRes.Digest(), refRes.Digest())
	}
	hyRes.Hybrid = tally
}

// TestHybridStaticTracksFullSim: the fluid welfare estimate of a static
// allocation must land within 1.5% of the full event simulation.
func TestHybridStaticTracksFullSim(t *testing.T) {
	n := 300
	m := hybridModel(t, n)
	var full, hyb float64
	for trial := uint64(0); trial < 3; trial++ {
		cfg := hybridStaticConfig(n)
		cfg.Seed = 11 + trial
		src, err := rates.NewSharded(m, 1500, 100+trial, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		full += r.AvgUtilityRate / 3
		h, err := RunHybrid(cfg, m, 1500, HybridOptions{ContactSeed: 100 + trial})
		if err != nil {
			t.Fatal(err)
		}
		if h.Hybrid.FellBack {
			t.Fatalf("unexpected fallback: %s", h.Hybrid.Reason)
		}
		hyb += h.AvgUtilityRate / 3
	}
	if rel := math.Abs(hyb-full) / full; rel > 0.015 {
		t.Errorf("hybrid %g vs full %g: relative error %.3f", hyb, full, rel)
	}
}

// TestHybridDemotionTrigger forces the error controller to fall back:
// a head-concentrated static allocation, a popularity reversal after
// warmup, and demand feedback disabled, so the fluid prediction goes
// stale and the probes' realized gains collapse.
func TestHybridDemotionTrigger(t *testing.T) {
	n := 200
	m, err := rates.New([]int{100, 100}, [][]float64{{0.01, 0.002}, {0.002, 0.01}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pop := demand.Pareto(32, 1, 0.1*float64(n))
	rev := demand.Popularity{Rates: make([]float64, 32)}
	for i, d := range pop.Rates {
		rev.Rates[31-i] = d
	}
	cfg := Config{
		Rho: 1, Utility: utility.Step{Tau: 2}, Pop: pop,
		Policy: core.Static{Label: "DOM"}, Initial: alloc.Dom(pop.Rates, n, 1),
		NoSticky: true, Seed: 11,
		DemandSwitch: &rev, DemandSwitchTime: 1200,
	}
	r, err := RunHybrid(cfg, m, 3000, HybridOptions{
		ContactSeed: 7, FeedbackAlpha: -1, BoundaryPerComm: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	tally := r.Hybrid
	if !tally.FellBack || tally.Demotions != 1 {
		t.Fatalf("controller did not demote: %+v", tally)
	}
	if tally.Violations < 2 {
		t.Errorf("%d violations recorded, want ≥ breach", tally.Violations)
	}
	if !strings.Contains(tally.Reason, "exceeds tolerance") {
		t.Errorf("demotion reason %q", tally.Reason)
	}
	// Control: the same run without the switch must stay on the fluid.
	cfg.DemandSwitch = nil
	ok, err := RunHybrid(cfg, m, 3000, HybridOptions{
		ContactSeed: 7, FeedbackAlpha: -1, BoundaryPerComm: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Hybrid.FellBack {
		t.Errorf("control run demoted: %+v", ok.Hybrid)
	}
}

// TestHybridBins: the time-series path must produce contiguous bins
// whose replica snapshots respect the cache budget.
func TestHybridBins(t *testing.T) {
	n := 200
	m := hybridModel(t, n)
	cfg := hybridStaticConfig(n)
	cfg.BinWidth = 100
	cfg.RecordCounts = true
	r, err := RunHybrid(cfg, m, 1000, HybridOptions{ContactSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bins) != 10 {
		t.Fatalf("%d bins for duration 1000 at width 100", len(r.Bins))
	}
	budget := n * cfg.Rho
	for bi, b := range r.Bins {
		if b.T1 <= b.T0 {
			t.Errorf("bin %d: [%g, %g]", bi, b.T0, b.T1)
		}
		var total int
		for _, c := range b.Counts {
			total += c
		}
		if d := math.Abs(float64(total - budget)); d > float64(budget)/100 {
			t.Errorf("bin %d: %d replicas vs budget %d", bi, total, budget)
		}
	}
	var fromBins int
	for _, b := range r.Bins {
		fromBins += b.Fulfillments
	}
	if fromBins < r.Fulfillments {
		t.Errorf("bins carry %d fulfillments, post-warmup total %d", fromBins, r.Fulfillments)
	}
}

// TestHybridTallyGatesDigest pins the nil-gating: attaching a tally
// changes the digest, leaving it nil does not.
func TestHybridTallyGatesDigest(t *testing.T) {
	r := Result{Duration: 10, TotalGain: 3, Fulfillments: 7}
	base := r.Digest()
	r.Hybrid = &HybridTally{FluidNodes: 1}
	if r.Digest() == base {
		t.Error("hybrid tally did not change the digest")
	}
	r.Hybrid = nil
	if r.Digest() != base {
		t.Error("nil tally digest drifted")
	}
}

func TestHybridErrIdentity(t *testing.T) {
	if _, err := RunHybrid(hybridStaticConfig(10), nil, 10, HybridOptions{}); !errors.Is(err, ErrHybrid) {
		t.Errorf("error %v does not wrap ErrHybrid", err)
	}
}
