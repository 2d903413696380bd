package rates

import (
	"fmt"
	"math/rand/v2"

	"impatience/internal/numeric"
	"impatience/internal/trace"
)

// Source streams the model's contact process with two-level alias
// sampling: the superposed Poisson clock ticks at TotalRate, the block
// pair of each event comes from one draw of the top table (over the
// positive-rate block pairs), and the endpoints come from the member
// tables of the two communities. Same-community events redraw the pair
// until the endpoints differ; the rejection is what makes the
// within-block distribution exactly weight-bilinear, and it
// terminates with probability one because zero-aggregate blocks (fewer
// than two positive-weight members) are never in the top table. State is
// O(N + C²) and each contact is O(1) expected work.
//
// Source implements trace.Source and trace.Reopenable. It is the serial
// reference sampler; ShardedSource generates the same process as
// independent block-group sub-streams for parallel generation.
type Source struct {
	m        *Model
	duration float64
	seed     uint64
	pcg      *rand.PCG  // alias draws take raw 64-bit words from it
	rng      *rand.Rand // wraps pcg; the clock's ExpFloat64
	top      *numeric.Alias
	member   []numeric.LabeledAlias
	t        float64
	done     bool
}

// NewSource builds the streaming sampler. The contact sequence is a pure
// function of (model, duration, seed).
func NewSource(m *Model, duration float64, seed uint64) (*Source, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("rates: duration %g not positive", duration)
	}
	top, err := numeric.NewAlias(m.pairW)
	if err != nil {
		return nil, fmt.Errorf("rates: block-pair table: %w", err)
	}
	member, err := m.memberTables()
	if err != nil {
		return nil, err
	}
	s := &Source{m: m, duration: duration, seed: seed, top: top, member: member}
	s.pcg, s.rng = newRNG(seed)
	return s, nil
}

// newRNG derives the sampler's generator from a seed: the PCG the alias
// draws read directly, and the rand.Rand over that same PCG that draws
// the exponential clock. Both consume one stream, in the order the
// sampler calls them.
func newRNG(seed uint64) (*rand.PCG, *rand.Rand) {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return pcg, rand.New(pcg)
}

// Model returns the rate model the source samples from.
func (s *Source) Model() *Model { return s.m }

// Nodes implements trace.Source.
func (s *Source) Nodes() int { return s.m.nodes }

// Duration implements trace.Source.
func (s *Source) Duration() float64 { return s.duration }

// Next implements trace.Source: one exponential clock step, one top
// draw, two member draws (plus rejections within a community). Zero
// allocations.
func (s *Source) Next() (trace.Contact, bool) {
	if s.done {
		return trace.Contact{}, false
	}
	s.t += s.rng.ExpFloat64() / s.m.total
	if s.t > s.duration {
		s.done = true
		return trace.Contact{}, false
	}
	cd := s.m.pairC[s.top.SampleBits(s.pcg.Uint64())]
	a, b := samplePair(s.member, int(cd[0]), int(cd[1]), s.pcg)
	return trace.Contact{T: s.t, A: a, B: b}, true
}

// Reopen implements trace.Reopenable: the fresh source re-derives its
// RNG from the recorded seed and shares the alias tables (they are
// immutable after construction), so reopening is O(1) however large the
// model.
func (s *Source) Reopen() (trace.Source, error) {
	r := &Source{m: s.m, duration: s.duration, seed: s.seed, top: s.top, member: s.member}
	r.pcg, r.rng = newRNG(s.seed)
	return r, nil
}

// samplePair draws the endpoints of one contact in block pair (c, d),
// returned with A < B per the digest-stable ordering convention. Each
// endpoint is one draw from its community's node table, fed a raw word
// straight from the PCG.
func samplePair(member []numeric.LabeledAlias, c, d int, pcg *rand.PCG) (int, int) {
	var a, b int32
	if c == d {
		// Reject and redraw the WHOLE pair on a == b: redrawing only the
		// second endpoint would distribute pairs as q_a·q_b/(1−q_a),
		// which is weight-bilinear only for uniform weights. Redrawing
		// both gives P{a,b} = 2·q_a·q_b / (1 − Σ q_i²) ∝ w_a·w_b — the
		// exact within-block distribution the aggregate (CW²−CSq)/2
		// assumes (pinned to 1e-12 by the property test).
		tab := member[c]
		for {
			a = tab.SampleBits(pcg.Uint64())
			b = tab.SampleBits(pcg.Uint64())
			if a != b {
				break
			}
		}
	} else {
		a = member[c].SampleBits(pcg.Uint64())
		b = member[d].SampleBits(pcg.Uint64())
	}
	if a > b {
		a, b = b, a
	}
	return int(a), int(b)
}
