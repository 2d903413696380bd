package numeric

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrBadWeights is returned when an alias table is built from weights that
// are not a usable discrete distribution: a negative or infinite entry, or
// a total weight of zero. NaN entries return ErrNaN, consistent with the
// root finders: every comparison against NaN is false, so a NaN weight
// would otherwise slip through the small/large partition and corrupt the
// table silently.
var ErrBadWeights = errors.New("numeric: invalid sampling weights")

// Alias is a Walker/Vose alias table: O(n) construction, O(1) sampling
// from a fixed discrete distribution. It replaces per-draw binary search
// over a cumulative distribution (O(log n) with cache-hostile access) in
// the contact generators, where n is the number of node pairs — O(N²) in
// the population size — and one draw happens per generated contact.
//
// The table stores, per column i, the probability prob[i] of keeping i
// and the alias to sample otherwise. Columns with zero weight get
// prob 0 and an alias to a positive-weight column, so they are never
// returned. Memory is 12 bytes per weight (float64 + int32).
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds the table. Weights must be non-negative and finite with
// a positive total; they need not be normalized. len(weights) must fit in
// an int32 (the alias column index), which holds for any population the
// rate matrices can represent.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty weight vector", ErrBadWeights)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d weights exceed int32 columns", ErrBadWeights, n)
	}
	var total float64
	for i, w := range weights {
		if math.IsNaN(w) {
			return nil, fmt.Errorf("%w: weight %d is NaN", ErrNaN, i)
		}
		if w < 0 || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: weight %d is %g", ErrBadWeights, i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: total weight is zero", ErrBadWeights)
	}

	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	// Scale so the average column is exactly 1, then pair each deficient
	// ("small") column with a surplus ("large") one.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers hold 1 up to float residue; they keep themselves.
	for _, l := range large {
		a.prob[l] = 1
		a.alias[l] = l
	}
	for _, s := range small {
		a.prob[s] = 1
		a.alias[s] = s
	}
	return a, nil
}

// Len returns the number of columns.
func (a *Alias) Len() int { return len(a.prob) }

// Probabilities reconstructs the exact sampling distribution the table
// implements: out[i] is the probability Sample returns i, assembled from
// the per-column keep probabilities and the aliased residues. It is the
// verification hook of the two-level samplers in internal/rates — their
// equivalence suite checks that the hierarchical tables reproduce the
// normalized flat rates to 1e-12, which requires reading the realized
// distribution back out of the table rather than trusting the builder.
// O(n); allocates the result slice.
func (a *Alias) Probabilities() []float64 {
	n := len(a.prob)
	out := make([]float64, n)
	inv := 1 / float64(n)
	for i, p := range a.prob {
		out[i] += p * inv
		if p < 1 {
			out[a.alias[i]] += (1 - p) * inv
		}
	}
	return out
}

// Sample draws one index with probability proportional to its weight,
// using a single uniform: the integer part picks the column, the
// fractional part decides between the column and its alias. No
// allocation, two array reads.
func (a *Alias) Sample(rng *rand.Rand) int { return a.SampleBits(rng.Uint64()) }

// SampleBits is Sample driven by one raw 64-bit draw: SampleBits(src.Uint64())
// returns exactly what Sample(rand.New(src)) would, so a caller that holds
// the concrete generator skips the interface call per draw.
func (a *Alias) SampleBits(bits uint64) int {
	i, coin := column(bits, len(a.prob))
	if coin < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// column splits one raw draw into a column of an n-column table and the
// coin that decides between the column and its alias. The uniform is
// formed exactly as rand.Rand.Float64 forms it (the low 53 bits over
// 2⁵³), which is what keeps SampleBits bit-compatible with Sample.
func column(bits uint64, n int) (int, float64) {
	u := float64(bits<<11>>11) / (1 << 53) * float64(n)
	i := int(u)
	if i >= n { // guards float rounding at the top end
		i = n - 1
	}
	return i, u - float64(i)
}

// LabeledAlias is an alias table whose columns carry caller-chosen int32
// labels: a draw returns the label of the column or of its alias instead
// of an index. Each column is one 16-byte entry holding the keep
// probability and both labels, so a draw reads a single entry where an
// Alias plus a separate index → label slice would read three arrays.
type LabeledAlias []labeledColumn

type labeledColumn struct {
	prob        float64
	keep, alias int32
}

// Labeled folds labels into the table: column i returns labels[i] when
// kept and the label of its alias column otherwise. The result draws
// exactly what labels[a.SampleBits(bits)] would.
func (a *Alias) Labeled(labels []int32) (LabeledAlias, error) {
	if len(labels) != len(a.prob) {
		return nil, fmt.Errorf("%w: %d labels for %d columns", ErrBadWeights, len(labels), len(a.prob))
	}
	out := make(LabeledAlias, len(a.prob))
	for i, p := range a.prob {
		out[i] = labeledColumn{prob: p, keep: labels[i], alias: labels[a.alias[i]]}
	}
	return out, nil
}

// SampleBits draws one label from one raw 64-bit draw.
func (t LabeledAlias) SampleBits(bits uint64) int32 {
	i, coin := column(bits, len(t))
	c := &t[i]
	if coin < c.prob {
		return c.keep
	}
	return c.alias
}

// Probabilities reads the realized sampling distribution back out of the
// labeled entries, keyed by label — the counterpart of
// Alias.Probabilities for the table that is actually sampled. O(n);
// allocates the result map.
func (t LabeledAlias) Probabilities() map[int32]float64 {
	out := make(map[int32]float64, len(t))
	inv := 1 / float64(len(t))
	for _, c := range t {
		out[c.keep] += c.prob * inv
		if c.prob < 1 {
			out[c.alias] += (1 - c.prob) * inv
		}
	}
	return out
}
