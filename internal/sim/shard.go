package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"impatience/internal/trace"
)

// shardChunk is one broadcast unit of the sharded driver: a freshly
// allocated, validated, time-ordered contact block plus the global
// ordinal of its first contact. Chunks are written once by the producer
// and only read by the workers, so sharing them is race-free.
type shardChunk struct {
	base     int64
	contacts []trace.Contact
}

// shardChunkSize balances broadcast overhead (one channel send per
// worker per chunk) against pipeline latency and chunk memory.
const shardChunkSize = 4096

// shardError carries a failure plus its deterministic priority: the
// global contact ordinal it occurred at, and a class that replays the
// serial executor's intra-contact order — stream validation (class −1)
// precedes every runner step of that contact, runner steps happen in
// config order (class = config index), and finish errors (ordinal
// MaxInt64) come after all steps, again in config order.
type shardError struct {
	ord   int64
	class int
	err   error
}

func (e shardError) before(o shardError) bool {
	if e.ord != o.ord {
		return e.ord < o.ord
	}
	return e.class < o.class
}

// RunBatchSharded is RunBatch partitioned across a worker set: the
// shared contact stream is produced (and, for trace.Partitionable
// sources such as the structured rate models, generated in parallel
// sub-streams and re-merged in (T, A, B) order) on a producer pipeline,
// broadcast in chunks, and each worker steps the runners it owns —
// config i belongs to worker i mod W. Because every runner's state and
// RNG streams are private and each consumes the identical validated
// contact sequence, Results[i] is bit-identical to RunBatch's — and
// therefore to Run(cfgs[i]) — at every shard count; shards ≤ 1 is
// exactly RunBatch. Errors are selected by (contact ordinal, config
// index), reproducing the serial executor's first-failure semantics
// regardless of worker scheduling.
func RunBatchSharded(cfgs []Config, contacts trace.Source, shards int) ([]*Result, error) {
	if shards <= 1 {
		return RunBatch(cfgs, contacts)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	if contacts == nil {
		return nil, fmt.Errorf("sim: nil contact source")
	}
	nodes, duration := contacts.Nodes(), contacts.Duration()
	runners := make([]*runner, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i] // private copy, as Run takes cfg by value
		if err := validateBatch(&cfg, nodes, duration); err != nil {
			return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
		}
		r, err := buildRunner(&cfg, nodes, duration)
		if err != nil {
			return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
		}
		r.checked = true // the producer validates each contact once
		runners[i] = r
	}

	workers := shards
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	var stop atomic.Bool
	feeds := make([]chan shardChunk, workers)
	for w := range feeds {
		feeds[w] = make(chan shardChunk, 4)
	}

	// Producer: generate → validate → chunk → broadcast. It runs on its
	// own goroutine so it overlaps with the workers; the caller joins
	// everyone at the end.
	var prodErr *shardError
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		defer func() {
			for _, f := range feeds {
				close(f)
			}
		}()
		stream := newShardStream(contacts, shards)
		defer stream.stop()
		prevT := 0.0
		var ord int64
		for prodErr == nil {
			// The source bulk-fills the broadcast chunk in place — no
			// per-contact staging copy. Each chunk is freshly allocated
			// because the workers hold references to broadcast chunks.
			chunk := make([]trace.Contact, shardChunkSize)
			n := stream.fill(chunk)
			if n == 0 {
				break
			}
			valid := 0
			for k := range chunk[:n] {
				if err := trace.CheckStreamContact(chunk[k], prevT, nodes, duration); err != nil {
					prodErr = &shardError{ord: ord + int64(valid), class: -1, err: err}
					break
				}
				prevT = chunk[k].T
				valid++
			}
			// Broadcast the valid prefix even when validation failed
			// mid-chunk: the serial executor steps every contact before the
			// failing one, and the deterministic error selection needs the
			// workers to have seen exactly that prefix.
			if valid > 0 {
				ck := shardChunk{base: ord, contacts: chunk[:valid]}
				for _, f := range feeds {
					f <- ck
				}
				ord += int64(valid)
				if stop.Load() {
					return
				}
			}
		}
		if prodErr == nil {
			if err := stream.err(); err != nil {
				prodErr = &shardError{ord: ord, class: -1, err: err}
			}
		}
	}()

	// Workers: step owned runners over every broadcast contact; on a
	// step error, record it, raise the stop flag, and keep draining the
	// feed so the producer never blocks. Finish errors rank after all
	// step errors (ordinal MaxInt64), matching the serial executor,
	// which only finishes once the whole stream has been stepped.
	results := make([]*Result, len(cfgs))
	workerErrs := make([]*shardError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var fail *shardError
			for ck := range feeds[w] {
				if fail != nil {
					continue // drain
				}
				for j, c := range ck.contacts {
					for idx := w; idx < len(runners); idx += workers {
						if err := runners[idx].step(c); err != nil {
							fail = &shardError{ord: ck.base + int64(j), class: idx, err: err}
							stop.Store(true)
							break
						}
					}
					if fail != nil {
						break
					}
				}
			}
			if fail == nil {
				for idx := w; idx < len(runners); idx += workers {
					res, err := runners[idx].finish()
					if err != nil {
						fail = &shardError{ord: math.MaxInt64, class: idx, err: fmt.Errorf("sim: batch config %d: %w", idx, err)}
						break
					}
					results[idx] = res
				}
			}
			workerErrs[w] = fail
		}(w)
	}
	prodWG.Wait()
	wg.Wait()

	best := prodErr
	for _, we := range workerErrs {
		if we != nil && (best == nil || we.before(*best)) {
			best = we
		}
	}
	if best != nil {
		return nil, best.err
	}
	return results, nil
}

// shardStream adapts the contact source for the producer: when the
// source is trace.Partitionable, generation itself fans out — each
// sub-stream is drained on its own goroutine into a buffered chunk
// channel, and the producer re-merges the chunk heads in (T, A, B)
// order, which by the Partitionable contract reconstructs the canonical
// sequence bit-for-bit. Otherwise next just forwards the source.
type shardStream struct {
	src   trace.Source
	parts []*shardPart
	done  chan struct{}
}

type shardPart struct {
	ch  chan []trace.Contact
	cur []trace.Contact
	i   int
}

// head returns the part's current front contact; ok is false once the
// part is exhausted.
func (p *shardPart) head() (trace.Contact, bool) {
	for p.i >= len(p.cur) {
		cur, ok := <-p.ch
		if !ok {
			return trace.Contact{}, false
		}
		p.cur, p.i = cur, 0
	}
	return p.cur[p.i], true
}

func newShardStream(src trace.Source, shards int) *shardStream {
	s := &shardStream{src: src}
	p, ok := src.(trace.Partitionable)
	if !ok {
		return s
	}
	subs, ok := p.Partition(shards)
	if !ok || len(subs) == 0 {
		return s
	}
	s.done = make(chan struct{})
	s.parts = make([]*shardPart, len(subs))
	for i, sub := range subs {
		part := &shardPart{ch: make(chan []trace.Contact, 2)}
		s.parts[i] = part
		go func(sub trace.Source) {
			defer close(part.ch)
			for {
				// Fresh per chunk: the producer reads a sent chunk while
				// this goroutine fills the next.
				buf := make([]trace.Contact, shardChunkSize)
				n := trace.FillBatch(sub, buf)
				if n == 0 {
					return
				}
				select {
				case part.ch <- buf[:n]:
				case <-s.done:
					return
				}
			}
		}(sub)
	}
	return s
}

// next returns the globally next contact: the minimum head across parts
// under (T, A, B) order — the partition sub-streams are few (≤ shard
// count), so a linear scan beats heap bookkeeping.
func (s *shardStream) next() (trace.Contact, bool) {
	if s.parts == nil {
		return s.src.Next()
	}
	bestI := -1
	var bestC trace.Contact
	for i, p := range s.parts {
		c, ok := p.head()
		if !ok {
			continue
		}
		if bestI < 0 || shardContactLess(c, bestC) {
			bestI, bestC = i, c
		}
	}
	if bestI < 0 {
		return trace.Contact{}, false
	}
	s.parts[bestI].i++
	return bestC, true
}

// fill bulk-fills buf with the globally next contacts. The
// non-partitioned path goes through the trace.BulkSource seam (one
// interface call per chunk instead of per contact); the partitioned
// path loops the concrete linear-scan merge, which carries no dispatch
// to elide. Either way the sequence is exactly what repeated next()
// would yield.
func (s *shardStream) fill(buf []trace.Contact) int {
	if s.parts == nil {
		return trace.FillBatch(s.src, buf)
	}
	n := 0
	for n < len(buf) {
		c, ok := s.next()
		if !ok {
			break
		}
		buf[n] = c
		n++
	}
	return n
}

// err surfaces a mid-stream source failure (only possible on the
// non-partitioned path; partitioned sub-streams come from synthetic
// generators, which cannot fail underway).
func (s *shardStream) err() error {
	if s.parts != nil {
		return nil
	}
	if es, ok := s.src.(trace.ErrSource); ok {
		return es.Err()
	}
	return nil
}

// stop releases the part goroutines on early abort.
func (s *shardStream) stop() {
	if s.done != nil {
		close(s.done)
	}
}

// shardContactLess is the canonical (T, A, B) merge order shared with
// the structured rate sources: contacts that compare equal are
// identical values, so the merged sequence is partition-invariant.
func shardContactLess(x, y trace.Contact) bool {
	if x.T != y.T {
		return x.T < y.T
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}
