package sim

import (
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

// runSharded is RunBatchSharded's multi-worker loop: a producer
// goroutine generates, validates, chunks and broadcasts the stream, and
// each worker steps the runners it owns. A panic in any goroutine
// becomes a shardError at the contact it happened on, so the ordinary
// first-failure selection reports it.
func runSharded(runners []*runner, contacts trace.Source, shards int) ([]*Result, error) {
	nodes, duration := runners[0].nodes, runners[0].duration
	workers := min(shards, len(runners))

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
		var ord int64
		defer func() {
			if p := recover(); p != nil {
				prodErr = &shardError{ord: ord, class: -1, err: panicErr(-1, p)}
			}
		}()
		stream := newShardStream(contacts, shards)
		defer stream.stop()
		prevT := 0.0
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
	// step error or a panic, record it, raise the stop flag, and keep
	// draining the feed so the producer never blocks. Finish errors rank
	// after all step errors (ordinal MaxInt64), matching the serial
	// executor, which only finishes once the whole stream has been
	// stepped.
	results := make([]*Result, len(runners))
	workerErrs := make([]*shardError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var fail *shardError
			var ord int64 // position of the step in flight, for panics
			idx := w
			defer func() {
				if p := recover(); p != nil {
					fail = &shardError{ord: ord, class: idx, err: panicErr(idx, p)}
					stop.Store(true)
					for range feeds[w] {
					}
				}
				workerErrs[w] = fail
			}()
			for ck := range feeds[w] {
				if fail != nil {
					continue // drain
				}
				for j, c := range ck.contacts {
					ord = ck.base + int64(j)
					for idx = w; idx < len(runners); idx += workers {
						if err := runners[idx].step(c); err != nil {
							fail = &shardError{ord: ord, class: idx, err: err}
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
				ord = math.MaxInt64
				for idx = w; idx < len(runners); idx += workers {
					res, err := runners[idx].finish()
					if err != nil {
						fail = &shardError{ord: ord, class: idx, err: configErr(len(runners), idx, err)}
						break
					}
					results[idx] = res
				}
			}
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
	src    trace.Source
	parts  []*shardPart
	done   chan struct{}
	failed error // first panicked part seen by next; ends the stream
}

type shardPart struct {
	ch  chan []trace.Contact
	cur []trace.Contact
	i   int
	err error // a panic of the part's goroutine; written before ch closes
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
			defer func() {
				if p := recover(); p != nil {
					part.err = panicErr(-1, p)
				}
			}()
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
			if p.err != nil {
				s.failed = p.err
				return trace.Contact{}, false
			}
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

// err surfaces a mid-stream source failure: a trace.ErrSource error on
// the non-partitioned path, a panicked sub-stream on the partitioned
// one.
func (s *shardStream) err() error {
	if s.parts != nil {
		return s.failed
	}
	return sourceErr(s.src)
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
