package sim

import (
	"strings"
	"testing"

	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// batchSchemes builds the per-scheme configs for one trial: a static
// allocation, a live QCR, and a fault-ridden hardened QCR (churn, lossy
// meetings with truncated transfers, mandate drops) with the full
// recording surface (delays, bins, counts) enabled. Policies are
// stateful, so every call constructs fresh ones.
func batchSchemes(t *testing.T) []Config {
	t.Helper()
	static := baseConfig(t, core.Static{Label: "uni"})
	static.Seed = 21
	static.RecordDelays = true

	qcr := baseConfig(t, &core.QCR{
		Reaction:       core.TunedReaction(utility.Step{Tau: 10}, 0.05, 14, 1),
		MandateRouting: true,
		StrictSource:   true,
		Seed:           7,
	})
	qcr.Seed = 22
	qcr.BinWidth = 80

	faulty := baseConfig(t, &core.QCR{
		Reaction:       core.PathReplication(0.5),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		MandateTTL:     80,
		MaxAttempts:    4,
		Seed:           93,
	})
	faulty.Seed = 23
	faulty.BinWidth = 80
	faulty.RecordCounts = true
	faulty.RecordDelays = true
	faulty.Faults = &faults.Config{
		ChurnRate:     0.002,
		MeanDowntime:  30,
		PLoss:         0.2, // truncated meetings
		PDrop:         0.1,
		MassCrashTime: 300,
		MassCrashFrac: 0.4,
		MassDowntime:  40,
		Seed:          23 ^ 0xbad,
	}
	return []Config{static, qcr, faulty}
}

// TestRunBatchValidation: malformed batches fail up front with the
// offending config identified, and contract violations in the shared
// stream abort the whole batch.
func TestRunBatchValidation(t *testing.T) {
	tr := smallTrace(t, 14, 0.05, 200, 3)

	if _, err := RunBatchSharded(nil, tr.Source(), 1); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunBatchSharded(batchSchemes(t), nil, 1); err == nil {
		t.Error("nil source accepted")
	}

	bad := batchSchemes(t)
	bad[1].Rho = 0
	if _, err := RunBatchSharded(bad, tr.Source(), 1); err == nil || !strings.Contains(err.Error(), "batch config 1") {
		t.Errorf("invalid config 1: error %v does not name it", err)
	}

	empty := (&trace.Trace{Nodes: 0, Duration: 100}).Source()
	if _, err := RunBatchSharded(batchSchemes(t), empty, 1); err == nil {
		t.Error("0-node source accepted")
	}

	disordered := (&trace.Trace{Nodes: 14, Duration: 100, Contacts: []trace.Contact{
		{T: 50, A: 0, B: 1}, {T: 10, A: 1, B: 2},
	}}).Source()
	if _, err := RunBatchSharded(batchSchemes(t), disordered, 1); err == nil {
		t.Error("out-of-order shared stream accepted")
	}
}

// TestBatchStepZeroAllocSteadyState extends the zero-allocation
// discipline to the batch executor: once warmed up, stepping every
// runner of a batch through one shared contact allocates nothing — the
// per-scheme bins, delay buffers and runner scratch are all preallocated
// or retained.
func TestBatchStepZeroAllocSteadyState(t *testing.T) {
	const (
		nodes    = 8
		items    = 6
		duration = 1e12
		dt       = 0.01
	)
	mk := func(pol core.Policy, seed uint64) Config {
		return Config{
			Rho:          3,
			Utility:      utility.Step{Tau: 10},
			Pop:          demand.Pareto(items, 1, 2),
			Policy:       pol,
			Seed:         seed,
			WarmupFrac:   -1,
			RecordDelays: true, // satellite: preallocated delay buffers stay flat
			BinWidth:     duration / 64,
		}
	}
	cfgs := []Config{mk(core.Static{Label: "uni"}, 5), mk(core.Static{Label: "sqrt"}, 6)}
	runners := make([]*runner, len(cfgs))
	for i := range cfgs {
		r, err := newRunner(&cfgs[i], nodes, duration)
		if err != nil {
			t.Fatalf("newRunner: %v", err)
		}
		runners[i] = r
	}
	var pairs []trace.Contact
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			pairs = append(pairs, trace.Contact{A: a, B: b})
		}
	}
	now, pi := 0.0, 0
	stepOne := func() {
		c := pairs[pi]
		pi = (pi + 1) % len(pairs)
		now += dt
		c.T = now
		for _, r := range runners {
			if err := r.step(c); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for i := 0; i < 50000; i++ {
		stepOne()
	}
	if avg := testing.AllocsPerRun(20000, stepOne); avg > 0.01 {
		t.Errorf("batch steady-state step allocates %.4f objects/contact, want 0", avg)
	}
}

// utilitySink defeats dead-code elimination in BenchmarkUtilityFor.
var utilitySink utility.Function

// BenchmarkUtilityFor quantifies the satellite's cached per-item utility
// table: the hot path's s.utilityFor(i) is one slice load, versus the
// per-fulfillment resolveUtility fallback chain it replaced.
func BenchmarkUtilityFor(b *testing.B) {
	const items = 64
	utils := make([]utility.Function, items)
	for i := range utils {
		if i%2 == 0 {
			utils[i] = utility.Step{Tau: float64(i + 1)}
		}
	}
	cfg := Config{
		Rho:       3,
		Utility:   utility.Step{Tau: 10},
		Utilities: utils,
		Pop:       demand.Uniform(items, 1),
		Policy:    core.Static{Label: "uni"},
		NoSticky:  true,
		Seed:      1,
	}
	r, err := newRunner(&cfg, 8, 100)
	if err != nil {
		b.Fatalf("newRunner: %v", err)
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			utilitySink = r.s.utilityFor(i % items)
		}
	})
	b.Run("resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			utilitySink = resolveUtility(&cfg, i%items)
		}
	})
}
