package experiment

import (
	"strings"
	"testing"

	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// structuredTiny pairs a small community model with a matching scenario.
func structuredTiny(t *testing.T) (Scenario, *rates.Model) {
	t.Helper()
	sc := Default()
	sc.Nodes = 40
	sc.Items = 10
	sc.Rho = 2
	sc.Duration = 800
	sc.Trials = 2
	m, err := rates.NewCommunity(rates.CommunityConfig{
		Nodes: 40, Communities: 4, In: 0.3, Out: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc, m
}

// TestStructuredScaleShardInvariance: the experiment-level shard knob
// must not change a single bit of the outcome — the report's digest
// family is identical at shards 1, 2, and 4, and the stream and utility
// measurements agree too.
func TestStructuredScaleShardInvariance(t *testing.T) {
	schemes := []string{SchemeQCR, SchemeUNI, SchemePROP}
	var base *StructuredReport
	for _, shards := range []int{1, 2, 4} {
		sc, m := structuredTiny(t)
		sc.Shards = shards
		rep, err := sc.StructuredScale(utility.Step{Tau: 10}, m, schemes, 0)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.Contacts == 0 {
			t.Fatalf("shards=%d: empty stream", shards)
		}
		if base == nil {
			base = rep
			continue
		}
		if rep.DigestFamily != base.DigestFamily {
			t.Errorf("shards=%d: digest family %#x != %#x at shards=1",
				shards, rep.DigestFamily, base.DigestFamily)
		}
		if rep.Contacts != base.Contacts {
			t.Errorf("shards=%d: %d contacts != %d", shards, rep.Contacts, base.Contacts)
		}
		for k := range rep.AvgUtility {
			if rep.AvgUtility[k] != base.AvgUtility[k] {
				t.Errorf("shards=%d scheme %s: utility %g != %g",
					shards, schemes[k], rep.AvgUtility[k], base.AvgUtility[k])
			}
		}
	}
}

// TestMeteredSourceMatchesRaw: metering is observation only. A run over
// the metered source — drained in batches through its NextBatch, with
// heap samples landing mid-stream — gives the same result digests as the
// same run over the raw source, at one and two shards, and counts every
// contact the runs stepped.
func TestMeteredSourceMatchesRaw(t *testing.T) {
	var _ trace.BulkSource = (*meteredSource)(nil)
	sc, m := structuredTiny(t)
	schemes := []string{SchemeQCR, SchemeUNI}
	mu := m.MeanPairRate()
	for _, shards := range []int{1, 2} {
		run := func(wrap func(trace.Source) trace.Source) []*sim.Result {
			t.Helper()
			src, err := sc.StructuredSources(m)(7)
			if err != nil {
				t.Fatal(err)
			}
			cfgs, err := sc.batchConfigs(schemes, utility.Step{Tau: 10}, nil, mu, 0, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunBatchSharded(cfgs, wrap(src), shards)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			return res
		}
		raw := run(func(s trace.Source) trace.Source { return s })
		var metered *meteredSource
		got := run(func(s trace.Source) trace.Source {
			metered = newMeteredSource(s)
			metered.every = 97 // sample inside batches, off their boundaries
			return metered
		})
		for k := range raw {
			if got[k].Digest() != raw[k].Digest() {
				t.Errorf("shards=%d scheme %s: metered digest %016x, raw %016x",
					shards, schemes[k], got[k].Digest(), raw[k].Digest())
			}
		}
		if metered.produced != raw[0].Meetings || metered.produced == 0 {
			t.Errorf("shards=%d: metered %d contacts, run stepped %d", shards, metered.produced, raw[0].Meetings)
		}
	}
}

// TestStructuredScaleReport sanity-checks the metered fields.
func TestStructuredScaleReport(t *testing.T) {
	sc, m := structuredTiny(t)
	sc.Shards = 2
	rep, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeUNI}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 40 || rep.Communities != 4 || rep.Shards != 2 {
		t.Errorf("provenance fields wrong: %+v", rep)
	}
	if rep.MeanPairRate != m.MeanPairRate() {
		t.Errorf("mean pair rate %g != model's %g", rep.MeanPairRate, m.MeanPairRate())
	}
	if rep.PeakHeapBytes == 0 {
		t.Error("peak heap not sampled")
	}
	if rep.Fulfillments <= 0 {
		t.Error("no fulfillments recorded")
	}
	for k, v := range rep.AvgUtility {
		if v <= 0 {
			t.Errorf("scheme %s utility %g", rep.Schemes[k], v)
		}
	}
}

// TestStructuredComparison: the trial engine runs over the structured
// source generator and aggregates like any other comparison.
func TestStructuredComparison(t *testing.T) {
	sc, m := structuredTiny(t)
	sc.Shards = 2
	schemes := []string{SchemeQCR, SchemeUNI}
	cmp, err := sc.RunStructuredComparison(utility.Step{Tau: 10}, m, schemes)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		if cmp.Utility[s].N != sc.Trials {
			t.Errorf("%s trials %d, want %d", s, cmp.Utility[s].N, sc.Trials)
		}
		if cmp.Utility[s].Mean <= 0 {
			t.Errorf("%s mean utility %g", s, cmp.Utility[s].Mean)
		}
	}
}

// TestStructuredRejectsOPT: both entry points refuse OPT (it needs the
// dense rate matrix the structured path exists to avoid) and a
// node-count mismatch between model and scenario.
func TestStructuredRejectsOPT(t *testing.T) {
	sc, m := structuredTiny(t)
	if _, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeOPT}, 0); err == nil ||
		!strings.Contains(err.Error(), "rate matrix") {
		t.Errorf("StructuredScale OPT: %v", err)
	}
	if _, err := sc.RunStructuredComparison(utility.Step{Tau: 10}, m, []string{SchemeQCR, SchemeOPT}); err == nil {
		t.Error("RunStructuredComparison accepted OPT")
	}
	if _, err := sc.StructuredScale(utility.Step{Tau: 10}, m, nil, 0); err == nil {
		t.Error("empty scheme set accepted")
	}
	sc.Nodes = 39
	if _, err := sc.StructuredScale(utility.Step{Tau: 10}, m, []string{SchemeQCR}, 0); err == nil {
		t.Error("node mismatch accepted")
	}
}
