package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/contact"
	"impatience/internal/core"
	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// The reference path of the contact kernel, as test wrappers. Each hides
// one capability the fast path keys on, so the executor falls back to
// the plain call shape the fast path must reproduce bit for bit.

// opaqueUtility hides a utility's concrete type, so kernelFor keeps the
// generic interface arm (ukGeneric).
type opaqueUtility struct{ utility.Function }

// activePolicy hides core.PassivePolicy, so the hooks always run.
type activePolicy struct{ core.Policy }

// nextOnly hides trace.BulkSource (and every other optional interface),
// so trace.FillBatch falls back to one Next per contact.
type nextOnly struct{ trace.Source }

// reference returns cfg with every utility made opaque and a passive
// policy made active. Only passive policies are wrapped: the wrapper
// would also hide a live policy's optional interfaces (mandate counts,
// fault and adversary awareness), which change results.
func reference(cfg Config) Config {
	if cfg.Utility != nil {
		cfg.Utility = opaqueUtility{cfg.Utility}
	}
	if cfg.Utilities != nil {
		us := make([]utility.Function, len(cfg.Utilities))
		for i, u := range cfg.Utilities {
			if u != nil {
				us[i] = opaqueUtility{u}
			}
		}
		cfg.Utilities = us
	}
	if core.IsPassive(cfg.Policy) {
		cfg.Policy = activePolicy{cfg.Policy}
	}
	return cfg
}

// viewSource is src as the reference path reads it when ref is set.
func viewSource(src trace.Source, ref bool) trace.Source {
	if ref {
		return nextOnly{src}
	}
	return src
}

// runOne is Run that fails the test on error.
func runOne(t *testing.T, cfg Config, src trace.Source) *Result {
	t.Helper()
	res, err := Run(cfg, src)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// diffRow is one batch the differential test runs every way. cfgs and
// the two source makers are called afresh per run: policies are
// stateful and a stream's RNG state mutates as it drains. stream must
// regenerate exactly the contacts of slice.
type diffRow struct {
	name   string
	cfgs   func(t *testing.T) []Config
	slice  func(t *testing.T) *trace.Trace
	stream func(t *testing.T) trace.Source
}

// diffWay is one way to execute a row: an entry point (shards 0 runs
// each config alone through Run), a view of the contacts ("slice" is
// the materialized trace, "stream" the generator, "next" the generator
// read one Next at a time) and whether the reference wrappers apply.
type diffWay struct {
	shards int
	src    string
	ref    bool
}

func (w diffWay) String() string {
	entry := "run"
	if w.shards > 0 {
		entry = fmt.Sprintf("shards%d", w.shards)
	}
	kernel := "fast"
	if w.ref {
		kernel = "ref"
	}
	return entry + "/" + w.src + "/" + kernel
}

// homogeneousRow drives cfgs over the homogeneous trace smallTrace(nodes,
// mu, duration, seed), streamed by the replay generator that draws the
// same contacts.
func homogeneousRow(name string, nodes int, mu, duration float64, seed uint64, cfgs func(t *testing.T) []Config) diffRow {
	return diffRow{
		name:  name,
		cfgs:  cfgs,
		slice: func(t *testing.T) *trace.Trace { return smallTrace(t, nodes, mu, duration, seed) },
		stream: func(t *testing.T) trace.Source {
			src, err := contact.NewReplayStream(trace.UniformRates(nodes, mu), duration, seed, seed+3)
			if err != nil {
				t.Fatalf("NewReplayStream: %v", err)
			}
			return src
		},
	}
}

// kernelPair is a static and a QCR config over one utility setting, with
// the time series on: the policy × utility grid of the kernel.
func kernelPair(mod func(*Config)) func(t *testing.T) []Config {
	return func(t *testing.T) []Config {
		static := baseConfig(t, core.Static{Label: "uni"})
		qcr := baseConfig(t, &core.QCR{
			Reaction:       core.TunedReaction(utility.Step{Tau: 10}, 0.05, 12, 1),
			MandateRouting: true,
			StrictSource:   true,
			Seed:           7,
		})
		cfgs := []Config{static, qcr}
		for i := range cfgs {
			cfgs[i].BinWidth = 80
			cfgs[i].RecordCounts = true
			mod(&cfgs[i])
		}
		return cfgs
	}
}

// TestExecutorDifferential is the executor's one determinism gate: every
// row's Result digests must be identical whichever way it runs — alone
// through Run or in lockstep at 1, 2 and NumCPU shards; over the
// materialized trace, the generator or the generator read one contact at
// a time; on the fast kernel or the reference wrappers. The rows cover
// Static and QCR over step, exponential and a mixed four-family
// dedicated-server catalog, plus the fault, adversary and free-rider
// layers and a structured community source whose generation fans out
// across shards. The ways are chosen so every entry point, source view
// and kernel appears, not as a full cross product.
func TestExecutorDifferential(t *testing.T) {
	rows := []diffRow{
		homogeneousRow("static+qcr/step", 12, 0.05, 800, 9, kernelPair(func(c *Config) {})),
		homogeneousRow("static+qcr/exp", 12, 0.05, 800, 9, kernelPair(func(c *Config) {
			c.Utility = utility.Exponential{Nu: 0.2}
		})),
		// Power (α > 1) and NegLog have unbounded h(0⁺), so they require
		// the dedicated-node case; mixing all four families per item also
		// exercises the per-item kernel table.
		homogeneousRow("static+qcr/mixed", 12, 0.05, 800, 9, kernelPair(func(c *Config) {
			c.ServerCount = 4 // 4·ρ slots ≥ the 10-item catalog
			fams := []utility.Function{
				utility.Step{Tau: 10}, utility.Exponential{Nu: 0.2},
				utility.Power{Alpha: 2}, utility.NegLog{},
			}
			c.Utilities = make([]utility.Function, c.Pop.Items())
			for i := range c.Utilities {
				c.Utilities[i] = fams[i%len(fams)]
			}
		})),
		// Static with delay recording, QCR with bins, and a hardened QCR
		// under churn, truncated meetings and mandate drops.
		homogeneousRow("faults", 14, 0.05, 700, 13, batchSchemes),
		// Every misbehavior class: the hooks and role lookups must run.
		homogeneousRow("adversary", 20, 0.05, 600, 11, func(t *testing.T) []Config {
			return []Config{adversarialConfig(t, 3), baseConfig(t, core.Static{Label: "uni"})}
		}),
		// Every node free-rides, so each local hit takes the suppressed
		// reaction branch that the passive fast path must never skip.
		homogeneousRow("free-riders", 15, 0.05, 500, 4, func(t *testing.T) []Config {
			cfg := baseConfig(t, core.Static{Label: "uni"})
			cfg.Adversary = &adversary.Config{FreeRiderFrac: 1, Seed: 3}
			return []Config{cfg}
		}),
		structuredRow(),
	}
	ways := []diffWay{
		{0, "slice", false}, {0, "stream", false},
		{1, "stream", false}, {1, "slice", true},
		{2, "stream", false}, {2, "next", true},
		{runtime.NumCPU(), "slice", false}, {runtime.NumCPU(), "next", false},
	}
	// The reference every way is compared with: each config alone on
	// the reference wrappers, reading the generator one Next at a time.
	oracle := diffWay{0, "next", true}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want := row.digests(t, oracle)
			for _, w := range ways {
				got := row.digests(t, w)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%v: config %d digest %#x, reference %#x", w, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// digests runs the row one way and returns each config's Result digest.
func (row diffRow) digests(t *testing.T, w diffWay) []uint64 {
	t.Helper()
	src := func() trace.Source {
		switch w.src {
		case "slice":
			return row.slice(t).Source()
		case "stream":
			return row.stream(t)
		}
		return nextOnly{row.stream(t)}
	}
	cfgs := row.cfgs(t)
	if w.ref {
		for i := range cfgs {
			cfgs[i] = reference(cfgs[i])
		}
	}
	var results []*Result
	if w.shards == 0 {
		for _, cfg := range cfgs {
			results = append(results, runOne(t, cfg, src()))
		}
	} else {
		var err error
		if results, err = RunBatchSharded(cfgs, src(), w.shards); err != nil {
			t.Fatalf("%v: %v", w, err)
		}
	}
	out := make([]uint64, len(results))
	for i, r := range results {
		out[i] = r.Digest()
	}
	return out
}

// structuredRow is the sharding suite's community scenario: the stream
// is the group-decomposed (Partitionable) sampler, reopened fresh per
// run, and the slice its collected contacts.
func structuredRow() diffRow {
	fresh := func(t *testing.T) trace.Source {
		_, src := shardScenario(t, 43)
		return reopenFresh(t, src)
	}
	return diffRow{
		name: "structured",
		cfgs: func(t *testing.T) []Config {
			cfgs, _ := shardScenario(t, 43)
			return cfgs
		},
		slice: func(t *testing.T) *trace.Trace {
			tr, err := trace.Collect(fresh(t))
			if err != nil {
				t.Fatalf("Collect: %v", err)
			}
			return tr
		},
		stream: fresh,
	}
}

// panicAt is a policy that panics at its at-th meeting.
type panicAt struct {
	core.Policy
	at, n int
}

func (p *panicAt) OnMeeting(c core.Cache, a, b int, t float64) {
	if p.n++; p.n == p.at {
		panic(fmt.Sprintf("meeting %d", p.at))
	}
	p.Policy.OnMeeting(c, a, b, t)
}

// panicSource is a contact source that panics at its at-th contact.
type panicSource struct {
	trace.Source
	at, n int
}

func (s *panicSource) Next() (trace.Contact, bool) {
	if s.n++; s.n == s.at {
		panic(fmt.Sprintf("contact %d", s.at))
	}
	return s.Source.Next()
}

// panickyParts partitions a structured source with one panicking part.
type panickyParts struct{ *rates.ShardedSource }

func (p panickyParts) Partition(n int) ([]trace.Source, bool) {
	subs, ok := p.ShardedSource.Partition(n)
	if ok {
		subs[0] = &panicSource{Source: subs[0], at: 100}
	}
	return subs, ok
}

// TestExecutorContainsPanics: a panic inside a runner, the source or a
// partition goroutine comes back as an error instead of killing the
// process, and a runner's panic names its config identically at every
// shard count and inside a two-worker trial pool. Completing at all
// shows the panicked worker kept draining its feed.
func TestExecutorContainsPanics(t *testing.T) {
	tr := smallTrace(t, 14, 0.05, 700, 13)
	const k = 1
	run := func(shards int) error {
		cfgs := batchSchemes(t)
		cfgs[k].Policy = &panicAt{Policy: cfgs[k].Policy, at: 50}
		_, err := RunBatchSharded(cfgs, tr.Source(), shards)
		return err
	}
	serial := run(1)
	if serial == nil || serial.Error() != "sim: batch config 1 panicked: meeting 50" {
		t.Fatalf("serial executor: error %v, want config %d's panic", serial, k)
	}
	if err := run(2); err == nil || err.Error() != serial.Error() {
		t.Errorf("2 shards: error %v, serial %v", err, serial)
	}
	_, err := parallel.RunTrials(3, 2, 1, func(trial int, _ uint64) (int, error) {
		if trial != 2 {
			return 0, nil
		}
		return 0, run(2)
	})
	if want := "parallel: trial 2: " + serial.Error(); err == nil || err.Error() != want {
		t.Errorf("trial pool: error %v, want %q", err, want)
	}

	for _, shards := range []int{1, 2} {
		src := &panicSource{Source: nextOnly{tr.Source()}, at: 30}
		_, err := RunBatchSharded(batchSchemes(t), src, shards)
		if err == nil || err.Error() != "sim: contact source panicked: contact 30" {
			t.Errorf("shards=%d: source panic surfaced as %v", shards, err)
		}
	}

	cfgs, src := shardScenario(t, 5)
	_, err = RunBatchSharded(cfgs, panickyParts{src}, 2)
	if err == nil || !strings.Contains(err.Error(), "contact source panicked: contact 100") {
		t.Errorf("partition panic surfaced as %v", err)
	}
}
