package rates

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"impatience/internal/trace"
)

// contactDigest is an FNV-1a hash of a full contact sequence — the
// bit-exactness instrument of the sharding suite (times hashed at full
// float64 precision).
func contactDigest(src trace.Source) (uint64, int) {
	var all []trace.Contact
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		all = append(all, c)
	}
	return digestContacts(all), len(all)
}

func digestContacts(cs []trace.Contact) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range cs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.T))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(c.A)<<32|uint64(c.B))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// referenceMerge is the specification of the group merge: a linear scan
// over the stream heads that emits the contactLess-minimum each step.
func referenceMerge(streams [][]trace.Contact) []trace.Contact {
	pos := make([]int, len(streams))
	var out []trace.Contact
	for {
		best := -1
		for i, s := range streams {
			if pos[i] < len(s) && (best < 0 || contactLess(s[pos[i]], streams[best][pos[best]])) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, streams[best][pos[best]])
		pos[best]++
	}
}

// drainOrdered drains src and fails unless it is in contactLess order.
func drainOrdered(t *testing.T, src trace.Source) []trace.Contact {
	t.Helper()
	var out []trace.Contact
	for {
		c, ok := src.Next()
		if !ok {
			return out
		}
		if n := len(out); n > 0 && contactLess(c, out[n-1]) {
			t.Fatalf("stream out of (T, A, B) order at %d: %+v after %+v", n, c, out[n-1])
		}
		out = append(out, c)
	}
}

// shardedModels returns one model per structured kind, sized so the
// digest runs stay fast.
func shardedModels(t *testing.T) map[string]*Model {
	t.Helper()
	community, err := NewCommunity(CommunityConfig{Nodes: 80, Communities: 5, In: 0.4, Out: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHubSpoke(HubSpokeConfig{Nodes: 80, Hubs: 8, HubHub: 0.3, HubSpoke: 0.1, SpokeSpoke: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistanceKernel(DistanceConfig{
		Nodes: 80, CellsX: 4, CellsY: 4, Width: 4000, Height: 4000, Mu0: 0.25, Lambda: 900, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Model{"community": community, "hubspoke": hub, "distance": dist}
}

// TestShardCountInvariance is the core determinism claim: the contact
// sequence of a ShardedSource is bit-identical whether drained serially
// or partitioned into any number of shards and re-merged by (T, A, B).
// Shard counts cover {1, 2, 4, NumCPU} plus a deliberately awkward 3.
func TestShardCountInvariance(t *testing.T) {
	for name, m := range shardedModels(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := NewSharded(m, 400, 97, 0)
			if err != nil {
				t.Fatal(err)
			}
			refDigest, refN := contactDigest(serial)
			if refN == 0 {
				t.Fatal("empty reference stream")
			}
			shardCounts := []int{1, 2, 3, 4, runtime.NumCPU()}
			for _, k := range shardCounts {
				src, err := NewSharded(m, 400, 97, 0)
				if err != nil {
					t.Fatal(err)
				}
				parts, ok := src.Partition(k)
				if !ok {
					t.Fatalf("shards=%d: Partition refused on a fresh source", k)
				}
				if len(parts) < 1 || len(parts) > k {
					t.Fatalf("shards=%d: got %d parts", k, len(parts))
				}
				// Each partition must itself be (T, A, B)-ordered; their
				// reference merge must reproduce the serial sequence exactly.
				streams := make([][]trace.Contact, len(parts))
				for i, p := range parts {
					streams[i] = drainOrdered(t, p)
				}
				all := referenceMerge(streams)
				d, n := digestContacts(all), len(all)
				if n != refN || d != refDigest {
					t.Errorf("shards=%d: digest %016x (n=%d), serial %016x (n=%d)", k, d, n, refDigest, refN)
				}
				// The partitioned-away receiver is drained.
				if _, ok := src.Next(); ok {
					t.Errorf("shards=%d: receiver still streams after Partition", k)
				}
			}
		})
	}
}

// TestPartitionSemantics pins the Partitionable contract edges: a
// started source refuses to split, max below 1 refuses, Reopen restores
// partitionability, and partitions are individually ordered.
func TestPartitionSemantics(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 30, Communities: 3, In: 0.5, Out: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSharded(m, 100, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Partition(0); ok {
		t.Error("Partition(0) accepted")
	}
	if _, err := src.Next(); err != true {
		t.Fatal("source unexpectedly empty")
	}
	if _, ok := src.Partition(2); ok {
		t.Error("Partition accepted on a started source")
	}
	re, err := src.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	parts, ok := re.(trace.Partitionable).Partition(4)
	if !ok {
		t.Fatal("reopened source refused to partition")
	}
	for i, p := range parts {
		prev := math.Inf(-1)
		for {
			c, ok := p.Next()
			if !ok {
				break
			}
			if c.T < prev {
				t.Fatalf("partition %d out of order: %g after %g", i, c.T, prev)
			}
			prev = c.T
		}
	}
	// A partition wider than the group count collapses to one source per
	// group.
	re2, _ := src.Reopen()
	parts2, ok := re2.(trace.Partitionable).Partition(10_000)
	if !ok {
		t.Fatal("wide partition refused")
	}
	if len(parts2) != re2.(*ShardedSource).Groups() {
		t.Fatalf("wide partition gave %d parts, want %d (one per group)", len(parts2), re2.(*ShardedSource).Groups())
	}
}

// TestShardedGoldenDigests pins the structured-rate contact streams
// bit-for-bit: any change to the samplers' RNG consumption, merge order,
// group assignment, or alias construction shows up here before it can
// silently invalidate cross-version comparisons. Regenerate by running
// with -run TestShardedGoldenDigests -v and copying the logged values —
// and bump the experiment-layer goldens alongside.
func TestShardedGoldenDigests(t *testing.T) {
	golden := map[string]struct {
		digest uint64
		n      int
	}{
		"community": {0xbca2e455c405797c, 79255},
		"hubspoke":  {0x923e32ae202bde6c, 18363},
		"distance":  {0xfc1bf7b566ad221e, 37320},
	}
	for name, m := range shardedModels(t) {
		src, err := NewSharded(m, 250, 1234, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, n := contactDigest(src)
		t.Logf("%s: digest 0x%016x n %d", name, d, n)
		if g := golden[name]; g.digest != d || g.n != n {
			t.Errorf("%s: digest 0x%016x (n=%d), golden 0x%016x (n=%d)", name, d, n, g.digest, g.n)
		}
	}
}

// TestGroupCountChangesStream documents that the group count — unlike
// the shard count — is part of the stream's identity: different group
// counts give different (equally valid) sequences, which is why
// DefaultGroups must stay fixed across comparison runs.
func TestGroupCountChangesStream(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 40, Communities: 4, In: 0.5, Out: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSharded(m, 200, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(m, 200, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := contactDigest(a)
	db, _ := contactDigest(b)
	if da == db {
		t.Error("streams with different group counts collide — group count not feeding the sub-seeds?")
	}
}

// TestLoserTreeMatchesReferenceMerge is the merge property: group streams
// of staggered lengths (some empty from the start) on a coarse time grid,
// so equal-T ties across and within streams — and exact duplicate
// contacts — are common, merged by the loser tree through random batch
// sizes with interleaved scalar Next calls, must equal the reference
// linear-scan merge contact for contact. k covers powers of two and the
// awkward widths around them.
func TestLoserTreeMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1313))
	for _, k := range []int{1, 2, 3, 5, 31, 32, 33} {
		for trial := 0; trial < 25; trial++ {
			streams := make([][]trace.Contact, k)
			srcs := make([]*groupSource, k)
			for i := range streams {
				n := rng.IntN(150)
				if rng.IntN(5) == 0 {
					n = 0
				}
				s := make([]trace.Contact, n)
				for j := range s {
					s[j] = trace.Contact{T: float64(rng.IntN(30)) / 2, A: rng.IntN(3), B: 3 + rng.IntN(3)}
				}
				slices.SortFunc(s, func(x, y trace.Contact) int {
					switch {
					case contactLess(x, y):
						return -1
					case contactLess(y, x):
						return 1
					}
					return 0
				})
				streams[i] = s
				// A done group holding its whole stream: the merge sees the
				// buffer drain and every later refill come back empty.
				srcs[i] = &groupSource{buf: slices.Clone(s), n: n, done: true}
			}
			want := referenceMerge(streams)
			mg := newMerged(6, 15, srcs)
			var got []trace.Contact
			buf := make([]trace.Contact, 1+rng.IntN(40))
			for i := 0; ; i++ {
				if i%4 == 3 {
					c, ok := mg.Next()
					if !ok {
						break
					}
					got = append(got, c)
					continue
				}
				n := mg.NextBatch(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d trial %d: loser tree emitted %d contacts, reference %d; first difference at %d",
					k, trial, len(got), len(want), firstDiff(got, want))
			}
			if n := mg.NextBatch(buf); n != 0 {
				t.Fatalf("k=%d trial %d: exhausted merge refilled %d contacts", k, trial, n)
			}
		}
	}
}

func firstDiff(a, b []trace.Contact) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestShardedNextBatchZeroAllocSteadyState pins the per-contact cost of
// the merged stream: once the first batch has built the groups and the
// tournament, refilling group buffers and replaying the loser tree
// allocate nothing.
func TestShardedNextBatchZeroAllocSteadyState(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 2000, Communities: 16, In: 0.05, Out: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSharded(m, 1000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Contact, 256)
	if src.NextBatch(buf) != len(buf) {
		t.Fatal("warm-up batch came back short")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if src.NextBatch(buf) != len(buf) {
			t.Fatal("stream ran dry during the measurement")
		}
	}); avg != 0 {
		t.Errorf("ShardedSource.NextBatch allocates %.2f objects per batch, want 0", avg)
	}
}

// TestPartitionNextBatchZeroAllocSteadyState pins the same for one
// Partition sub-stream, the unit each shard generator drains.
func TestPartitionNextBatchZeroAllocSteadyState(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 2000, Communities: 16, In: 0.05, Out: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSharded(m, 1000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts, ok := src.Partition(2)
	if !ok {
		t.Fatal("Partition refused on a fresh source")
	}
	sub := parts[0].(trace.BulkSource)
	buf := make([]trace.Contact, 256)
	if sub.NextBatch(buf) != len(buf) {
		t.Fatal("warm-up batch came back short")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if sub.NextBatch(buf) != len(buf) {
			t.Fatal("sub-stream ran dry during the measurement")
		}
	}); avg != 0 {
		t.Errorf("Partition sub-stream NextBatch allocates %.2f objects per batch, want 0", avg)
	}
}
