package rates

import (
	"math/rand/v2"
	"testing"

	"impatience/internal/trace"
)

// TestShardedNextBatchMatchesNext: the bulk seam over the group-merged
// structured source must reproduce the scalar Next sequence exactly —
// same lazy construction, same tournament, same contacts — for random
// community shapes, group counts and batch sizes, including interleaved
// scalar draws mid-stream.
func TestShardedNextBatchMatchesNext(t *testing.T) {
	meta := rand.New(rand.NewPCG(0x5a4d, 0xbeef))
	for trial := 0; trial < 40; trial++ {
		comms := 2 + meta.IntN(5)
		nodes := comms * (2 + meta.IntN(6))
		m, err := NewCommunity(CommunityConfig{
			Nodes:       nodes,
			Communities: comms,
			In:          0.05 + meta.Float64()*0.2,
			Out:         0.005 + meta.Float64()*0.02,
		})
		if err != nil {
			t.Fatalf("trial %d: NewCommunity: %v", trial, err)
		}
		duration := 10 + meta.Float64()*40
		seed := meta.Uint64()
		groups := meta.IntN(8) // 0 selects DefaultGroups
		batch := 1 + meta.IntN(300)

		ref, err := NewSharded(m, duration, seed, groups)
		if err != nil {
			t.Fatalf("trial %d: NewSharded ref: %v", trial, err)
		}
		bulk, err := NewSharded(m, duration, seed, groups)
		if err != nil {
			t.Fatalf("trial %d: NewSharded bulk: %v", trial, err)
		}
		var want []trace.Contact
		for {
			c, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, c)
		}
		var got []trace.Contact
		buf := make([]trace.Contact, batch)
		for i := 0; ; i++ {
			if i%3 == 2 { // interleave: bulk and scalar share one cursor
				c, ok := bulk.Next()
				if !ok {
					break
				}
				got = append(got, c)
				continue
			}
			n := bulk.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (nodes=%d groups=%d batch=%d): %d contacts via bulk, %d via Next",
				trial, nodes, groups, batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (nodes=%d groups=%d batch=%d): contact %d = %+v via bulk, %+v via Next",
					trial, nodes, groups, batch, i, got[i], want[i])
			}
		}
	}
}

// TestShardedNextBatchAfterPartition pins the drained-receiver contract:
// once Partition hands the groups out, the receiver's bulk path — like
// its scalar path — reports exhaustion rather than replaying.
func TestShardedNextBatchAfterPartition(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 12, Communities: 3, In: 0.1, Out: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(m, 50, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Partition(4); !ok {
		t.Fatal("Partition refused on a fresh source")
	}
	buf := make([]trace.Contact, 16)
	if n := s.NextBatch(buf); n != 0 {
		t.Fatalf("NextBatch on a partitioned-away source filled %d contacts, want 0", n)
	}
}
