// Package rates provides structured heterogeneous contact-rate models —
// community/block, hub-spoke, and a distance-kernel model over the
// random-waypoint fleet of internal/mobility — whose contact processes
// are sampled hierarchically: one small alias table over community-pair
// blocks plus one alias table per community over its members, so setup
// is O(N + C²) and each contact costs O(1) draws. This replaces the
// dense O(N²) pair alias table of internal/contact in the large-N
// regime: at a million nodes the dense table alone would be ~6 TB, while
// the hierarchical state stays near 40 bytes per node.
//
// The two-level decomposition is exact, not approximate: the pair rate
// of the block model is rate(a,b) = block[c_a][c_b]·w_a·w_b, so drawing
// a block pair with probability proportional to its aggregate rate and
// then drawing members weight-proportionally within each community
// reproduces the normalized flat pair distribution identically (the
// equivalence suite pins this to 1e-12, and statistically against the
// dense sampler of internal/contact at small N).
package rates

import (
	"errors"
	"fmt"
	"math"

	"impatience/internal/numeric"
	"impatience/internal/trace"
)

// ErrModel is wrapped by every construction-time validation failure:
// negative or non-finite rates, non-square or non-symmetric blocks,
// empty communities, zero-weight communities, or a zero total rate.
var ErrModel = errors.New("rates: invalid model")

// Model is a validated structured rate model: a partition of the node
// set into C communities, a symmetric C×C block-rate matrix, and
// optional per-node weights. The pair contact rate is
//
//	rate(a,b) = block[comm(a)][comm(b)] · w(a) · w(b),  a ≠ b,
//
// with w ≡ 1 when no weights are given. All derived quantities the
// samplers need — per-community weight sums, block aggregate rates, the
// positive-rate block-pair list — are precomputed at construction in
// O(N + C²).
type Model struct {
	nodes   int
	comm    []int32   // node → community
	members [][]int32 // community → member node ids, ascending
	weight  []float64 // per-node weight; nil means uniform 1

	block  [][]float64 // C×C symmetric block rates
	commW  []float64   // Σ_{i∈c} w_i
	commSq []float64   // Σ_{i∈c} w_i²

	// Block pairs (c ≤ d) with positive aggregate rate, in row-major
	// order. pairW[k] is the total contact rate of all node pairs in
	// block pair k; total is Σ pairW.
	pairC [][2]int32
	pairW []float64
	total float64
}

// New builds a block model whose communities are consecutive node
// ranges: community c holds sizes[c] nodes starting where community c−1
// ended. block must be a symmetric len(sizes)×len(sizes) matrix of
// non-negative finite rates; weights is either nil (uniform) or one
// non-negative finite weight per node.
func New(sizes []int, block [][]float64, weights []float64) (*Model, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("%w: no communities", ErrModel)
	}
	nodes := 0
	for c, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("%w: community %d is empty (size %d)", ErrModel, c, s)
		}
		nodes += s
	}
	comm := make([]int32, nodes)
	off := 0
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			comm[off+i] = int32(c)
		}
		off += s
	}
	return NewAssigned(comm, block, weights)
}

// NewAssigned builds a block model from an explicit node → community
// assignment (the distance-kernel constructor needs arbitrary
// membership; New is the consecutive-range convenience over it). Every
// community in [0, len(block)) must be non-empty.
func NewAssigned(comm []int32, block [][]float64, weights []float64) (*Model, error) {
	nodes := len(comm)
	if nodes < 2 {
		return nil, fmt.Errorf("%w: %d nodes", ErrModel, nodes)
	}
	nc := len(block)
	if nc == 0 {
		return nil, fmt.Errorf("%w: no communities", ErrModel)
	}
	for c, row := range block {
		if len(row) != nc {
			return nil, fmt.Errorf("%w: block row %d has %d entries, want %d (non-square)", ErrModel, c, len(row), nc)
		}
		for d, r := range row {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				return nil, fmt.Errorf("%w: block rate [%d][%d] = %g", ErrModel, c, d, r)
			}
			if d < c && block[d][c] != r {
				return nil, fmt.Errorf("%w: block not symmetric at [%d][%d] (%g vs %g)", ErrModel, c, d, r, block[d][c])
			}
		}
	}
	if weights != nil && len(weights) != nodes {
		return nil, fmt.Errorf("%w: %d weights for %d nodes", ErrModel, len(weights), nodes)
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("%w: node %d has weight %g", ErrModel, i, w)
		}
	}

	m := &Model{
		nodes:  nodes,
		comm:   comm,
		weight: weights,
		block:  block,
		commW:  make([]float64, nc),
		commSq: make([]float64, nc),
	}
	counts := make([]int, nc)
	for i, c := range comm {
		if c < 0 || int(c) >= nc {
			return nil, fmt.Errorf("%w: node %d assigned to community %d of %d", ErrModel, i, c, nc)
		}
		counts[c]++
		w := m.nodeWeight(i)
		m.commW[c] += w
		m.commSq[c] += w * w
	}
	m.members = make([][]int32, nc)
	for c, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf("%w: community %d is empty", ErrModel, c)
		}
		m.members[c] = make([]int32, 0, n)
	}
	for i, c := range comm {
		m.members[c] = append(m.members[c], int32(i))
	}
	for c := 0; c < nc; c++ {
		if m.commW[c] <= 0 {
			return nil, fmt.Errorf("%w: community %d has zero total weight", ErrModel, c)
		}
	}

	// Aggregate rate per block pair: for c < d every cross pair exists,
	// Σ_{a∈c, b∈d} B·w_a·w_b = B·CW_c·CW_d; within a community the a≠b
	// unordered pairs sum to B·(CW_c² − CSq_c)/2, which is zero exactly
	// when the community has fewer than two positive-weight members (so
	// such blocks drop out and the member-rejection loop below never
	// runs on them).
	for c := 0; c < nc; c++ {
		for d := c; d < nc; d++ {
			b := block[c][d]
			if b <= 0 {
				continue
			}
			var agg float64
			if c == d {
				agg = b * (m.commW[c]*m.commW[c] - m.commSq[c]) / 2
			} else {
				agg = b * m.commW[c] * m.commW[d]
			}
			if agg <= 0 {
				continue
			}
			m.pairC = append(m.pairC, [2]int32{int32(c), int32(d)})
			m.pairW = append(m.pairW, agg)
			m.total += agg
		}
	}
	if m.total <= 0 {
		return nil, fmt.Errorf("%w: total contact rate is zero", ErrModel)
	}
	// Entry-wise finite rates can still overflow in the aggregates
	// (B·CW_c·CW_d multiplies three finite numbers): an infinite total is
	// unsamplable, so reject it here rather than at clock time.
	if math.IsInf(m.total, 0) {
		return nil, fmt.Errorf("%w: total contact rate overflows float64", ErrModel)
	}
	return m, nil
}

// nodeWeight returns w(i), treating a nil weight vector as uniform 1.
func (m *Model) nodeWeight(i int) float64 {
	if m.weight == nil {
		return 1
	}
	return m.weight[i]
}

// Nodes returns the population size.
func (m *Model) Nodes() int { return m.nodes }

// Communities returns the number of communities C.
func (m *Model) Communities() int { return len(m.block) }

// Community returns the community of node i.
func (m *Model) Community(i int) int { return int(m.comm[i]) }

// TotalRate returns the summed contact rate over all node pairs.
func (m *Model) TotalRate() float64 { return m.total }

// MeanPairRate returns the average per-pair contact rate, the µ the
// mean-field formulas consume: TotalRate / C(N,2). The scale pipeline
// uses it in place of the O(N²) empirical rate pass.
func (m *Model) MeanPairRate() float64 {
	return m.total / float64(trace.NumPairs(m.nodes))
}

// CommunitySize returns the number of nodes in community c.
func (m *Model) CommunitySize(c int) int { return len(m.members[c]) }

// Member returns the j-th node id of community c (ascending order).
func (m *Model) Member(c, j int) int { return int(m.members[c][j]) }

// BlockRate returns β_cd, the pairwise contact rate between one node of
// community c and one node of community d (before per-node weights).
func (m *Model) BlockRate(c, d int) float64 { return m.block[c][d] }

// UniformWeights reports whether every node carries the same weight, in
// which case members of one community are exchangeable — the property
// the hybrid mean-field engine needs to treat a community as one fluid
// sub-population.
func (m *Model) UniformWeights() bool {
	if m.weight == nil {
		return true
	}
	w0 := m.weight[0]
	for _, w := range m.weight[1:] {
		if w != w0 {
			return false
		}
	}
	return true
}

// RateAt returns the model contact rate of the unordered pair {a, b}
// (zero when a == b).
func (m *Model) RateAt(a, b int) float64 {
	if a == b {
		return 0
	}
	return m.block[m.comm[a]][m.comm[b]] * m.nodeWeight(a) * m.nodeWeight(b)
}

// DenseRates materializes the model as a flat rate matrix. This is the
// bridge to the dense samplers and the equivalence suite — it costs
// O(N²) memory by definition, so it refuses populations past the regime
// the dense path itself supports.
func (m *Model) DenseRates() (*trace.RateMatrix, error) {
	const maxDense = 20000
	if m.nodes > maxDense {
		return nil, fmt.Errorf("rates: DenseRates at N=%d would materialize O(N²) state (limit %d)", m.nodes, maxDense)
	}
	rm := trace.NewRateMatrix(m.nodes)
	for a := 0; a < m.nodes; a++ {
		for b := a + 1; b < m.nodes; b++ {
			if r := m.RateAt(a, b); r > 0 {
				rm.Set(a, b, r)
			}
		}
	}
	return rm, nil
}

// memberTables builds the per-community node tables: alias tables
// weight-proportional within each community whose columns carry the
// member node ids, so one draw yields a node id. Total size is O(N).
func (m *Model) memberTables() ([]numeric.LabeledAlias, error) {
	out := make([]numeric.LabeledAlias, len(m.members))
	for c, mem := range m.members {
		w := make([]float64, len(mem))
		for i, n := range mem {
			w[i] = m.nodeWeight(int(n))
		}
		a, err := numeric.NewAlias(w)
		if err != nil {
			return nil, fmt.Errorf("rates: community %d member table: %w", c, err)
		}
		if out[c], err = a.Labeled(mem); err != nil {
			return nil, fmt.Errorf("rates: community %d member table: %w", c, err)
		}
	}
	return out, nil
}
