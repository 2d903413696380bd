package sim

import (
	"math"
	"testing"

	"impatience/internal/core"
)

// TestRecordDelaysDigestStability pins that the per-item conformance
// instrumentation (Config.RecordDelays → ItemDelays/ItemGains/
// ItemFulfillments) is observer-only: the run with recording on is
// digest-identical to the run with it off, for both a static allocation
// and QCR. Any future change that lets the instrumentation touch RNG
// order, fulfillment accounting or the digest field list fails here.
func TestRecordDelaysDigestStability(t *testing.T) {
	tr := smallTrace(t, 12, 0.05, 800, 9)
	for _, tc := range []struct {
		name string
		pol  func() core.Policy
	}{
		{"static", func() core.Policy { return core.Static{Label: "uni"} }},
		{"qcr", func() core.Policy {
			return &core.QCR{
				Reaction:       core.PathReplication(1),
				MandateRouting: true,
				Seed:           7,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := baseConfig(t, tc.pol())
			plain.BinWidth = 80
			want, err := Run(plain, tr.Source())
			if err != nil {
				t.Fatalf("plain Run: %v", err)
			}
			rec := baseConfig(t, tc.pol())
			rec.BinWidth = 80
			rec.RecordDelays = true
			got, err := Run(rec, tr.Source())
			if err != nil {
				t.Fatalf("recording Run: %v", err)
			}
			if got.Digest() != want.Digest() {
				t.Errorf("RecordDelays changed the digest: %#x != %#x", got.Digest(), want.Digest())
			}
			if want.ItemDelays != nil || want.ItemGains != nil || want.ItemFulfillments != nil {
				t.Error("instrumentation populated without RecordDelays")
			}
			checkInstrumentation(t, got)
		})
	}
}

// checkInstrumentation validates the internal consistency of the
// per-item fields against the aggregate counters.
func checkInstrumentation(t *testing.T, res *Result) {
	t.Helper()
	if res.ItemDelays == nil || res.ItemGains == nil || res.ItemFulfillments == nil {
		t.Fatal("RecordDelays set but instrumentation nil")
	}
	totalF, totalG, immediate := 0, 0.0, 0
	for i := range res.ItemDelays {
		if len(res.ItemDelays[i]) != res.ItemFulfillments[i] {
			t.Errorf("item %d: %d delay samples, %d fulfillments", i, len(res.ItemDelays[i]), res.ItemFulfillments[i])
		}
		totalF += res.ItemFulfillments[i]
		totalG += res.ItemGains[i]
		for _, d := range res.ItemDelays[i] {
			if d < 0 {
				t.Errorf("item %d: negative delay %g", i, d)
			}
			if d == 0 {
				immediate++
			}
		}
	}
	if totalF != res.Fulfillments {
		t.Errorf("Σ ItemFulfillments = %d, Result.Fulfillments = %d", totalF, res.Fulfillments)
	}
	// TotalGain = fulfillment gains + the (negative) outstanding charge,
	// so the per-item gains must sum to the difference exactly (same
	// additions, same order within an item; across items the order can
	// differ, hence the tiny float tolerance).
	if diff := math.Abs(totalG - (res.TotalGain - res.OutstandingCost)); diff > 1e-9*math.Max(1, math.Abs(res.TotalGain)) {
		t.Errorf("Σ ItemGains = %g, TotalGain−OutstandingCost = %g", totalG, res.TotalGain-res.OutstandingCost)
	}
	// Every zero delay is an immediate fulfillment; ages of met-in-the-
	// field fulfillments are strictly positive with probability 1.
	if immediate != res.Immediate {
		t.Errorf("%d zero delays, %d immediate fulfillments", immediate, res.Immediate)
	}
}
