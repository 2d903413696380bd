package numeric

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func aliasRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed*0x9e3779b9)) }

// TestAliasMatchesWeights draws heavily from several weight shapes and
// chi-square-tests the empirical frequencies against the weights. The
// 99.9% critical values are generous so the fixed-seed test is far from
// its rejection boundary.
func TestAliasMatchesWeights(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		crit    float64 // chi-square 99.9% critical value for df = k-1 (positive-weight columns)
	}{
		{"uniform", []float64{1, 1, 1, 1}, 16.27},
		{"skewed", []float64{10, 1, 0.1, 0.01}, 16.27},
		{"with-zeros", []float64{0, 3, 0, 1, 0, 2}, 16.27},
		{"single", []float64{0, 0, 5}, 10.83},
		{"pareto-ish", []float64{1, 0.5, 1.0 / 3, 0.25, 0.2, 1.0 / 6, 1.0 / 7, 0.125}, 24.32},
	}
	const draws = 200000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAlias(tc.weights)
			if err != nil {
				t.Fatalf("NewAlias: %v", err)
			}
			rng := aliasRNG(11)
			counts := make([]int, len(tc.weights))
			for i := 0; i < draws; i++ {
				counts[a.Sample(rng)]++
			}
			var total float64
			for _, w := range tc.weights {
				total += w
			}
			var chi2 float64
			for i, w := range tc.weights {
				exp := w / total * draws
				if exp == 0 {
					if counts[i] != 0 {
						t.Fatalf("zero-weight column %d sampled %d times", i, counts[i])
					}
					continue
				}
				d := float64(counts[i]) - exp
				chi2 += d * d / exp
			}
			if chi2 > tc.crit {
				t.Errorf("chi-square %.2f exceeds 99.9%% critical value %.2f (counts %v)", chi2, tc.crit, counts)
			}
		})
	}
}

// TestAliasRejectsBadWeights pins the error conventions: NaN entries
// surface ErrNaN, negative/infinite entries and degenerate totals surface
// ErrBadWeights — never a silently corrupt table.
func TestAliasRejectsBadWeights(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		want    error
	}{
		{"empty", nil, ErrBadWeights},
		{"all-zero", []float64{0, 0, 0}, ErrBadWeights},
		{"negative", []float64{1, -0.5, 2}, ErrBadWeights},
		{"inf", []float64{1, math.Inf(1)}, ErrBadWeights},
		{"nan", []float64{1, math.NaN(), 2}, ErrNaN},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAlias(tc.weights)
			if err == nil {
				t.Fatalf("NewAlias accepted %v", tc.weights)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v does not wrap %v", err, tc.want)
			}
			if a != nil {
				t.Errorf("non-nil table returned with error")
			}
		})
	}
}

// TestAliasPropertyRandomWeights fuzzes construction over random weight
// vectors (with zeros mixed in) and checks the table is well-formed: every
// prob in [0,1], every alias a valid positive-weight column, and
// zero-weight columns unreachable.
func TestAliasPropertyRandomWeights(t *testing.T) {
	rng := aliasRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(40)
		w := make([]float64, n)
		positive := false
		for i := range w {
			if rng.Float64() < 0.3 {
				w[i] = 0
			} else {
				w[i] = rng.ExpFloat64()
				positive = true
			}
		}
		if !positive {
			w[rng.IntN(n)] = 1
		}
		a, err := NewAlias(w)
		if err != nil {
			t.Fatalf("trial %d: NewAlias(%v): %v", trial, w, err)
		}
		for i := range a.prob {
			if a.prob[i] < 0 || a.prob[i] > 1 || math.IsNaN(a.prob[i]) {
				t.Fatalf("trial %d: prob[%d]=%g out of [0,1]", trial, i, a.prob[i])
			}
			al := int(a.alias[i])
			if al < 0 || al >= n {
				t.Fatalf("trial %d: alias[%d]=%d out of range", trial, i, al)
			}
			// A column reachable via alias must have positive weight.
			if a.prob[i] < 1 && w[al] == 0 {
				t.Fatalf("trial %d: alias[%d] points at zero-weight column %d", trial, i, al)
			}
		}
		for i := 0; i < 2000; i++ {
			if k := a.Sample(rng); w[k] == 0 {
				t.Fatalf("trial %d: sampled zero-weight column %d", trial, k)
			}
		}
	}
}

func BenchmarkAliasSample(b *testing.B) {
	w := make([]float64, 1<<19) // ~ node pairs at N=1k
	rng := aliasRNG(3)
	for i := range w {
		w[i] = rng.ExpFloat64()
	}
	a, err := NewAlias(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Sample(rng)
	}
	_ = sink
}

// TestAliasProbabilities checks that the realized distribution read back
// from the table matches the normalized weights to float accuracy — the
// guarantee the hierarchical samplers' 1e-12 equivalence suite builds on.
func TestAliasProbabilities(t *testing.T) {
	rng := aliasRNG(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(64)
		w := make([]float64, n)
		var total float64
		for i := range w {
			if rng.Float64() < 0.25 {
				w[i] = 0 // exercise zero-weight columns
			} else {
				w[i] = rng.ExpFloat64()
			}
			total += w[i]
		}
		if total == 0 {
			w[0] = 1
			total = 1
		}
		a, err := NewAlias(w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p := a.Probabilities()
		var sum float64
		for i := range p {
			sum += p[i]
			if want := w[i] / total; math.Abs(p[i]-want) > 1e-12 {
				t.Fatalf("trial %d: P[%d] = %g, want %g (Δ=%g)", trial, i, p[i], want, p[i]-want)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("trial %d: probabilities sum to %g", trial, sum)
		}
	}
}

// TestSampleBitsMatchesSample pins the raw-draw entry points to Sample:
// fed the words of the same PCG stream, SampleBits returns what Sample
// returns through a rand.Rand over that PCG, and a labeled table returns
// the label of that column — draw for draw, including tables with
// zero-weight (always aliased) columns.
func TestSampleBitsMatchesSample(t *testing.T) {
	rng := aliasRNG(5)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(40)
		w := make([]float64, n)
		labels := make([]int32, n)
		for i := range w {
			if rng.Float64() < 0.2 {
				w[i] = 0
			} else {
				w[i] = rng.ExpFloat64()
			}
			labels[i] = int32(1000*trial + 7*i + 3)
		}
		w[rng.IntN(n)] = 1
		a, err := NewAlias(w)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := a.Labeled(labels)
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Uint64()
		viaRand := rand.New(rand.NewPCG(seed, seed+1))
		raw := rand.NewPCG(seed, seed+1)
		for d := 0; d < 2000; d++ {
			want := a.Sample(viaRand)
			bits := raw.Uint64()
			if got := a.SampleBits(bits); got != want {
				t.Fatalf("trial %d draw %d: SampleBits %d, Sample %d", trial, d, got, want)
			}
			if got := lab.SampleBits(bits); got != labels[want] {
				t.Fatalf("trial %d draw %d: labeled draw %d, want label %d of column %d", trial, d, got, labels[want], want)
			}
		}
		// The labeled readback is the column readback, relabeled.
		colP := a.Probabilities()
		labP := lab.Probabilities()
		for i, p := range colP {
			if p != labP[labels[i]] {
				t.Fatalf("trial %d: label %d realizes %g, column %d %g", trial, labels[i], labP[labels[i]], i, p)
			}
		}
	}
	a, _ := NewAlias([]float64{1, 2})
	if _, err := a.Labeled([]int32{1}); !errors.Is(err, ErrBadWeights) {
		t.Errorf("Labeled with 1 label for 2 columns: err %v, want ErrBadWeights", err)
	}
}
