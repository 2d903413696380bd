package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"impatience/internal/experiment"
	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// fullSource implements every optional source interface over a slice.
type fullSource struct{ *trace.SliceSource }

func (fullSource) Partition(int) ([]trace.Source, bool) { return nil, false }
func (fullSource) Err() error                           { return nil }

func TestWrapKeepsExactlyTheCapabilities(t *testing.T) {
	tr := &trace.Trace{Nodes: 3, Duration: 1, Contacts: []trace.Contact{{T: 0.5, A: 0, B: 1}}}
	full := fullSource{tr.Source()}
	for caps := capability(0); caps < 16; caps++ {
		inner := (&tap{src: full}).wrapAs(caps)
		if got := capabilities(inner); got != caps {
			t.Fatalf("wrapAs(%04b) has capabilities %04b", caps, got)
		}
		if got := capabilities((&tap{src: inner}).wrap()); got != caps {
			t.Errorf("wrapping a source with capabilities %04b gives %04b", caps, got)
		}
	}
	m, err := communityModel(3200, communities)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := rates.NewSharded(m, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	homog, err := experiment.Default().HomogeneousSources()(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []trace.Source{sharded, homog, tr.Source()} {
		if got, want := capabilities((&tap{src: src}).wrap()), capabilities(src); got != want {
			t.Errorf("%T: wrapped capabilities %04b, want %04b", src, got, want)
		}
	}
}

// The traced stream job (timed source, sampled QCR hooks, serial) and the
// untraced job on two shards must both reproduce the raw executor's
// digest.
func TestWrappedStreamIsDigestIdentical(t *testing.T) {
	const nodes, duration, seed = 3200, 20.0, 7
	m, err := communityModel(nodes, communities)
	if err != nil {
		t.Fatal(err)
	}
	src, err := rates.NewSharded(m, duration, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := qcrConfig(streamScenario(seed, nodes, duration), utility.Step{Tau: 10}, m.MeanPairRate(), 0)
	raw, err := sim.RunBatchSharded([]sim.Config{cfg}, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := raw[0].Digest()
	untraced, err := runStreamJob(seed, nodes, duration, 2)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedStreamJob(seed, nodes, duration)
	if err != nil {
		t.Fatal(err)
	}
	if got := untraced.res.Digest(); got != want {
		t.Errorf("tapped 2-shard job digest %016x, raw %016x", got, want)
	}
	if got := traced.res.Digest(); got != want {
		t.Errorf("traced serial job digest %016x, raw %016x", got, want)
	}
	if traced.pol.calls == 0 || traced.tap.batches == 0 || traced.tap.contacts != int64(raw[0].Meetings) {
		t.Errorf("traced job saw %d hook calls, %d batches, %d contacts (raw run had %d meetings)",
			traced.pol.calls, traced.tap.batches, traced.tap.contacts, raw[0].Meetings)
	}
}

// Traced trials, aggregated, must reproduce RunComparison's summary.
func TestWrappedComparisonIsIdentical(t *testing.T) {
	sc := paperScenario(3).Scaled(0.2, 0.05)
	u := utility.Step{Tau: 10}
	ref, err := sc.RunComparison(u, sc.HomogeneousSources(), paperSchemes)
	if err != nil {
		t.Fatal(err)
	}
	base := sc.HomogeneousSources()
	trials, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) (paperTrial, error) {
		return tracedTrial(sc, u, base, trial, seed, time.Duration(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	per := make([][]float64, len(trials))
	for i, tr := range trials {
		per[i] = tr.utility
	}
	if !sameComparison(aggregate(per), ref) {
		t.Error("traced trials do not reproduce the RunComparison summary")
	}
	g := &setupGen{base: sc.HomogeneousSources()}
	tapped, err := sc.RunComparison(u, g.gen, paperSchemes)
	if err != nil {
		t.Fatal(err)
	}
	if !sameComparison(tapped, ref) {
		t.Error("the setup-timing taps change the comparison")
	}
}

// The rebuilt hybrid configurations must run exactly what
// Scenario.StructuredScale runs.
func TestHybridRebuildIsDigestIdentical(t *testing.T) {
	sc := hybridScenario(5)
	sc.Nodes, sc.DemandRate, sc.Duration = 3200, 32, 60
	m, err := communityModel(sc.Nodes, communities)
	if err != nil {
		t.Fatal(err)
	}
	u := utility.Step{Tau: 10}
	ref, err := sc.StructuredScale(u, m, hybridSchemes, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, hy := hybridConfigs(sc, u, m.MeanPairRate())
	acc := uint64(0x9e3779b97f4a7c15)
	for _, cfg := range cfgs {
		r, err := sim.RunHybrid(cfg, m, sc.Duration, hy)
		if err != nil {
			t.Fatal(err)
		}
		acc = parallel.SplitMix64(acc ^ r.Digest())
	}
	if acc != ref.DigestFamily {
		t.Errorf("rebuilt digest family %016x, StructuredScale %016x", acc, ref.DigestFamily)
	}
}

// BENCHMARK.json must list exactly the metrics and workloads this
// program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

// A short serve-flash-crowd run in both modes must pass every gate: it
// drives the session's worker goroutines, the timing middleware and the
// replay, so running it under -race checks their synchronization.
func TestServeRunsAreCorrect(t *testing.T) {
	for _, traced := range []bool{false, true} {
		run := runServe
		if traced {
			run = traceServe
		}
		rep, err := run(options{seed: 2, seconds: 1, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range rep.gates {
			if !g.ok {
				t.Errorf("trace=%v: gate %s failed: %s", traced, g.name, g.detail)
			}
		}
		if rep.attempted == 0 || rep.failed != 0 {
			t.Errorf("trace=%v: %d attempted, %d failed", traced, rep.attempted, rep.failed)
		}
	}
}
