package rates

import (
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/numeric"
	"impatience/internal/parallel"
	"impatience/internal/trace"
)

// DefaultGroups is the number of independent block-group sub-streams a
// ShardedSource decomposes into. The group count — not the shard count —
// defines the canonical contact sequence, so it must stay fixed while
// shards vary. 32 groups keep the serial loser-tree merge five levels
// deep (one key comparison per level per contact) while leaving enough
// parallel slack for any realistic core count.
const DefaultGroups = 32

// groupBuffer is how many contacts a group draws ahead into its private
// buffer: a refill amortizes the call and keeps one group's tables hot
// for a run of draws, and all 32 buffers (48 KB) still fit in L2.
const groupBuffer = 64

// groupSource generates the sub-process of the block pairs assigned to
// one group (block pair k belongs to group k mod groups): a Poisson
// clock at the group's aggregate rate plus the same two-level endpoint
// draw as Source, with a generator derived from the parent seed by the
// group's fixed SplitMix64 sub-stream. Distinct groups are independent
// by construction, so any time-ordered merge of all groups reproduces
// one well-defined contact process regardless of how the groups are
// batched onto shards. Contacts are drawn ahead in runs of groupBuffer;
// buf[pos:n] are the drawn contacts not yet merged.
type groupSource struct {
	pairC    [][2]int32
	member   []numeric.LabeledAlias
	duration float64
	total    float64 // this group's aggregate rate
	top      *numeric.Alias
	idx      []int32 // indices into pairC
	pcg      *rand.PCG
	rng      *rand.Rand // wraps pcg; the clock's ExpFloat64
	t        float64
	done     bool
	buf      []trace.Contact
	pos, n   int
}

// refill draws the group's next contacts into buf. Once the clock passes
// the horizon the group is done and every later refill leaves buf empty.
func (g *groupSource) refill() {
	n := 0
	for !g.done && n < len(g.buf) {
		g.t += g.rng.ExpFloat64() / g.total
		if g.t > g.duration {
			g.done = true
			break
		}
		cd := g.pairC[g.idx[g.top.SampleBits(g.pcg.Uint64())]]
		a, b := samplePair(g.member, int(cd[0]), int(cd[1]), g.pcg)
		g.buf[n] = trace.Contact{T: g.t, A: a, B: b}
		n++
	}
	g.pos, g.n = 0, n
}

// key is the merge key of the group's head contact: the IEEE bits of
// its time, or of +Inf once the group is exhausted. Times are
// non-negative, so the bits order exactly like the values, and as
// integers the merge can pick winners with conditional moves.
func (g *groupSource) key() uint64 {
	if g.pos < g.n {
		return math.Float64bits(g.buf[g.pos].T)
	}
	return math.Float64bits(math.Inf(1))
}

// contactLess is the canonical merge order: time, then endpoints
// lexicographically. A contact is exactly its key, so two contacts that
// compare equal are interchangeable — which is why the merged sequence
// is invariant to how the group sources are partitioned.
func contactLess(x, y trace.Contact) bool {
	if x.T != y.T {
		return x.T < y.T
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// merged is a k-way merge of group sub-streams in contactLess order, run
// as a loser tree. Group i's leaf sits at position k+i of an implicit
// binary tree whose internal nodes 1…k−1 each hold the loser of the
// match played there; node[0] holds the overall winner. keys[i] is
// group i's head key (see groupSource.key), kept apart from the contact
// buffers so a match compares two integers; endpoints are compared only
// on an exact time tie. Emitting the winner's head replays the matches
// on its leaf-to-root path: ⌈log₂ k⌉ comparisons, no contact copies.
// It implements trace.Source and trace.BulkSource.
type merged struct {
	nodes    int
	duration float64
	srcs     []*groupSource
	keys     []uint64
	node     []int32
}

// newMerged primes each group's buffer and plays the initial tournament
// bottom-up (win[j] is the winner of the subtree under internal node j).
func newMerged(nodes int, duration float64, srcs []*groupSource) *merged {
	k := len(srcs)
	mg := &merged{nodes: nodes, duration: duration, srcs: srcs, keys: make([]uint64, k), node: make([]int32, max(k, 1))}
	for i, g := range srcs {
		if g.pos >= g.n {
			g.refill()
		}
		mg.keys[i] = g.key()
	}
	win := make([]int32, k)
	winner := func(j int) int32 {
		if j >= k {
			return int32(j - k)
		}
		return win[j]
	}
	for j := k - 1; j >= 1; j-- {
		a, b := winner(2*j), winner(2*j+1)
		if mg.less(b, a) {
			a, b = b, a
		}
		win[j], mg.node[j] = a, b
	}
	if k > 1 {
		mg.node[0] = win[1]
	}
	return mg
}

func (mg *merged) Nodes() int        { return mg.nodes }
func (mg *merged) Duration() float64 { return mg.duration }

// less is the contactLess order on the heads of groups i and j.
func (mg *merged) less(i, j int32) bool {
	if ki, kj := mg.keys[i], mg.keys[j]; ki != kj {
		return ki < kj
	}
	return mg.tieLess(i, j)
}

// tieLess breaks an exact time tie by endpoints. Two exhausted groups
// (both keys +Inf) order by index; neither ever emits.
func (mg *merged) tieLess(i, j int32) bool {
	gi, gj := mg.srcs[i], mg.srcs[j]
	if gi.pos >= gi.n {
		return gj.pos >= gj.n && i < j
	}
	return contactLess(gi.buf[gi.pos], gj.buf[gj.pos])
}

// Next implements trace.Source.
func (mg *merged) Next() (trace.Contact, bool) {
	var one [1]trace.Contact
	if mg.NextBatch(one[:]) == 0 {
		return trace.Contact{}, false
	}
	return one[0], true
}

// NextBatch implements trace.BulkSource: it emits the tournament winner,
// advances that group (refilling its buffer when drained), and replays
// the winner's path, until buf is full or every group is exhausted.
func (mg *merged) NextBatch(buf []trace.Contact) int {
	k := len(mg.srcs)
	if k == 0 {
		return 0
	}
	keys, node := mg.keys, mg.node
	n := 0
	for n < len(buf) {
		w := node[0]
		g := mg.srcs[w]
		if g.pos >= g.n {
			break // the winner is exhausted, so every group is
		}
		buf[n] = g.buf[g.pos]
		n++
		if g.pos++; g.pos == g.n {
			g.refill()
		}
		kw := g.key()
		keys[w] = kw
		for j := (int(w) + k) >> 1; j > 0; j >>= 1 {
			l := node[j]
			kl := keys[l]
			if kl == kw { // exact time tie: rare, so well predicted
				if mg.tieLess(l, w) {
					node[j], w = w, l
				}
				continue
			}
			// Two conditional moves instead of a branch: each match is
			// a coin flip a branch predictor would miss half the time.
			lose := l
			if kl < kw {
				lose = w
			}
			if kl < kw {
				kw = kl
			}
			node[j] = lose
			w ^= l ^ lose // the other of the two climbs
		}
		node[0] = w
	}
	return n
}

// ShardedSource streams the same structured contact process as a merge
// of `groups` independent block-group sub-streams, each with its own
// SplitMix64-derived RNG. Because the groups — not the shards — carry
// the randomness, the sequence is bit-identical however the groups are
// batched: drained serially through Next, or split across workers with
// Partition and re-merged by (T, A, B). It implements trace.Source,
// trace.Reopenable, and trace.Partitionable.
type ShardedSource struct {
	m        *Model
	duration float64
	seed     uint64
	groups   int
	member   []numeric.LabeledAlias
	mg       *merged
	started  bool
}

// NewSharded builds the group-decomposed sampler. groups ≤ 0 selects
// DefaultGroups; the effective count is capped at the number of
// positive-rate block pairs (a group cannot own less than one block
// pair). The contact sequence is a pure function of (model, duration,
// seed, groups) — vary groups and the sequence changes, so hold it fixed
// across runs that must compare digests.
func NewSharded(m *Model, duration float64, seed uint64, groups int) (*ShardedSource, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("rates: duration %g not positive", duration)
	}
	if groups <= 0 {
		groups = DefaultGroups
	}
	if groups > len(m.pairC) {
		groups = len(m.pairC)
	}
	member, err := m.memberTables()
	if err != nil {
		return nil, err
	}
	return &ShardedSource{m: m, duration: duration, seed: seed, groups: groups, member: member}, nil
}

// Groups returns the effective group count.
func (s *ShardedSource) Groups() int { return s.groups }

// Model returns the rate model the source samples from.
func (s *ShardedSource) Model() *Model { return s.m }

// Nodes implements trace.Source.
func (s *ShardedSource) Nodes() int { return s.m.nodes }

// Duration implements trace.Source.
func (s *ShardedSource) Duration() float64 { return s.duration }

// group builds group g's sub-stream from scratch (alias over its block
// pairs, RNG from the fixed per-group sub-seed).
func (s *ShardedSource) group(g int) (*groupSource, error) {
	gs := &groupSource{pairC: s.m.pairC, member: s.member, duration: s.duration, buf: make([]trace.Contact, groupBuffer)}
	for k := g; k < len(s.m.pairC); k += s.groups {
		gs.idx = append(gs.idx, int32(k))
		gs.total += s.m.pairW[k]
	}
	w := make([]float64, len(gs.idx))
	for i, k := range gs.idx {
		w[i] = s.m.pairW[k]
	}
	top, err := numeric.NewAlias(w)
	if err != nil {
		return nil, fmt.Errorf("rates: group %d table: %w", g, err)
	}
	gs.top = top
	gs.pcg, gs.rng = newRNG(parallel.TrialSeed(s.seed, g))
	return gs, nil
}

// buildAll constructs every group sub-stream.
func (s *ShardedSource) buildAll() ([]*groupSource, error) {
	out := make([]*groupSource, s.groups)
	for g := range out {
		gs, err := s.group(g)
		if err != nil {
			return nil, err
		}
		out[g] = gs
	}
	return out, nil
}

// merge returns the in-process merge of all groups, building it on
// first use. It is nil once Partition has handed the groups out (the
// receiver is drained), and nil on a construction failure — NewSharded
// validated everything that can fail there, so an impossible failure
// reads as an empty stream rather than a panic.
func (s *ShardedSource) merge() *merged {
	if !s.started {
		s.started = true
		if all, err := s.buildAll(); err == nil {
			s.mg = newMerged(s.m.nodes, s.duration, all)
		}
	}
	return s.mg
}

// Next implements trace.Source by lazily merging all groups in-process.
func (s *ShardedSource) Next() (trace.Contact, bool) {
	if mg := s.merge(); mg != nil {
		return mg.Next()
	}
	return trace.Contact{}, false
}

// NextBatch implements trace.BulkSource over the same lazily built merge
// as Next, so bulk and scalar draws share one cursor: NextBatch(buf)
// followed by Next() resumes mid-stream seamlessly.
func (s *ShardedSource) NextBatch(buf []trace.Contact) int {
	if mg := s.merge(); mg != nil {
		return mg.NextBatch(buf)
	}
	return 0
}

// Reopen implements trace.Reopenable.
func (s *ShardedSource) Reopen() (trace.Source, error) {
	return NewSharded(s.m, s.duration, s.seed, s.groups)
}

// Partition implements trace.Partitionable: it deals the group
// sub-streams round-robin into at most max individually ordered sources
// (each itself a merge of its groups) and reports false once the
// receiver has started streaming — a partially drained source cannot
// split without replaying. After a successful Partition the receiver is
// drained; the handed-out sources own the process.
func (s *ShardedSource) Partition(max int) ([]trace.Source, bool) {
	if s.started || max < 1 {
		return nil, false
	}
	if max > s.groups {
		max = s.groups
	}
	all, err := s.buildAll()
	if err != nil {
		return nil, false
	}
	buckets := make([][]*groupSource, max)
	for g, src := range all {
		buckets[g%max] = append(buckets[g%max], src)
	}
	out := make([]trace.Source, max)
	for i, b := range buckets {
		out[i] = newMerged(s.m.nodes, s.duration, b)
	}
	s.started = true
	return out, true
}
