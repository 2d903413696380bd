package main

import (
	"time"

	"impatience/internal/core"
	"impatience/internal/trace"
)

// tap observes a contact source from outside: it counts the contacts
// handed out and marks the first call and the call that reported the end
// of the stream. With timed set it also times every NextBatch call, which
// is cheap at the simulator's batch granularity; Next is never timed,
// because callers that drain per contact would pay a timer per contact.
type tap struct {
	src      trace.Source
	timed    bool
	onReopen func(trace.Source) trace.Source

	started  bool
	first    time.Time
	last     time.Time
	contacts int64
	batches  int64
	busy     time.Duration
}

func (t *tap) touch() {
	if !t.started {
		t.started = true
		t.first = time.Now()
	}
}

func (t *tap) Nodes() int        { return t.src.Nodes() }
func (t *tap) Duration() float64 { return t.src.Duration() }

func (t *tap) Next() (trace.Contact, bool) {
	t.touch()
	c, ok := t.src.Next()
	if ok {
		t.contacts++
	} else {
		t.last = time.Now()
	}
	return c, ok
}

func (t *tap) nextBatch(buf []trace.Contact) int {
	t.touch()
	var n int
	if t.timed {
		t0 := time.Now()
		n = t.src.(trace.BulkSource).NextBatch(buf)
		t.busy += time.Since(t0)
		t.batches++
	} else {
		n = t.src.(trace.BulkSource).NextBatch(buf)
	}
	t.contacts += int64(n)
	if n == 0 && len(buf) > 0 {
		t.last = time.Now()
	}
	return n
}

func (t *tap) reopen() (trace.Source, error) {
	s, err := t.src.(trace.Reopenable).Reopen()
	if err != nil || t.onReopen == nil {
		return s, err
	}
	return t.onReopen(s), nil
}

// partition hands out the raw sub-streams: once a source is partitioned
// the consumer drains them on its own goroutines, so the tap only marks
// the moment generation starts.
func (t *tap) partition(max int) ([]trace.Source, bool) {
	t.touch()
	return t.src.(trace.Partitionable).Partition(max)
}

func (t *tap) err() error { return t.src.(trace.ErrSource).Err() }

// The optional source capabilities, one method each, so a wrapper can be
// assembled that implements exactly the interfaces its source does: the
// simulator and the experiment harness choose their paths by type
// assertion, and a wrapper that added or hid a capability would measure a
// different program.
type (
	bulkCap    struct{ t *tap }
	reopenCap  struct{ t *tap }
	partCap    struct{ t *tap }
	errCap     struct{ t *tap }
	capability = int
)

func (c bulkCap) NextBatch(buf []trace.Contact) int      { return c.t.nextBatch(buf) }
func (c reopenCap) Reopen() (trace.Source, error)        { return c.t.reopen() }
func (c partCap) Partition(m int) ([]trace.Source, bool) { return c.t.partition(m) }
func (c errCap) Err() error                              { return c.t.err() }

const (
	capBulk capability = 1 << iota
	capReopen
	capPart
	capErr
)

// capabilities reports which optional source interfaces src implements.
func capabilities(src trace.Source) capability {
	var c capability
	if _, ok := src.(trace.BulkSource); ok {
		c |= capBulk
	}
	if _, ok := src.(trace.Reopenable); ok {
		c |= capReopen
	}
	if _, ok := src.(trace.Partitionable); ok {
		c |= capPart
	}
	if _, ok := src.(trace.ErrSource); ok {
		c |= capErr
	}
	return c
}

// wrap returns t as a Source with exactly the optional capabilities of
// the source it observes.
func (t *tap) wrap() trace.Source { return t.wrapAs(capabilities(t.src)) }

// wrapAs returns t as a Source with the given optional capabilities,
// which the observed source must have.
func (t *tap) wrapAs(caps capability) trace.Source {
	b, r, p, e := bulkCap{t}, reopenCap{t}, partCap{t}, errCap{t}
	switch caps {
	case 0:
		return t
	case capBulk:
		return struct {
			*tap
			bulkCap
		}{t, b}
	case capReopen:
		return struct {
			*tap
			reopenCap
		}{t, r}
	case capBulk | capReopen:
		return struct {
			*tap
			bulkCap
			reopenCap
		}{t, b, r}
	case capPart:
		return struct {
			*tap
			partCap
		}{t, p}
	case capBulk | capPart:
		return struct {
			*tap
			bulkCap
			partCap
		}{t, b, p}
	case capReopen | capPart:
		return struct {
			*tap
			reopenCap
			partCap
		}{t, r, p}
	case capBulk | capReopen | capPart:
		return struct {
			*tap
			bulkCap
			reopenCap
			partCap
		}{t, b, r, p}
	case capErr:
		return struct {
			*tap
			errCap
		}{t, e}
	case capBulk | capErr:
		return struct {
			*tap
			bulkCap
			errCap
		}{t, b, e}
	case capReopen | capErr:
		return struct {
			*tap
			reopenCap
			errCap
		}{t, r, e}
	case capBulk | capReopen | capErr:
		return struct {
			*tap
			bulkCap
			reopenCap
			errCap
		}{t, b, r, e}
	case capPart | capErr:
		return struct {
			*tap
			partCap
			errCap
		}{t, p, e}
	case capBulk | capPart | capErr:
		return struct {
			*tap
			bulkCap
			partCap
			errCap
		}{t, b, p, e}
	case capReopen | capPart | capErr:
		return struct {
			*tap
			reopenCap
			partCap
			errCap
		}{t, r, p, e}
	default:
		return struct {
			*tap
			bulkCap
			reopenCap
			partCap
			errCap
		}{t, b, r, p, e}
	}
}

// tracedQCR wraps a QCR policy to count its hook calls and time one call
// in every sampleEvery. Embedding the *core.QCR keeps every optional
// interface the simulator looks for (fault, crash and adversary
// awareness, mandate counters). It must never be handed to sim.RunHybrid,
// which type-asserts *core.QCR to pick the fluid path.
//
// A hook costs a few nanoseconds, less than the timer pair around it, so
// each sampled call also times an empty interval in place: the hook's
// cost is the difference of the two means.
type tracedQCR struct {
	*core.QCR
	sampleEvery uint64
	calls       uint64
	sampled     uint64
	sampledTime time.Duration // timed intervals around the sampled calls
	emptyTime   time.Duration // timed empty intervals next to them
}

// sample times one hook call and an empty interval next to it.
func (p *tracedQCR) sample(call func()) {
	t0 := time.Now()
	t1 := time.Now()
	call()
	t2 := time.Now()
	p.emptyTime += t1.Sub(t0)
	p.sampledTime += t2.Sub(t1)
	p.sampled++
}

func (p *tracedQCR) OnMeeting(c core.Cache, a, b int, now float64) {
	p.calls++
	if p.calls%p.sampleEvery != 0 {
		p.QCR.OnMeeting(c, a, b, now)
		return
	}
	p.sample(func() { p.QCR.OnMeeting(c, a, b, now) })
}

func (p *tracedQCR) OnFulfill(c core.Cache, node, peer, item, queries int, age, now float64) {
	p.calls++
	if p.calls%p.sampleEvery != 0 {
		p.QCR.OnFulfill(c, node, peer, item, queries, age, now)
		return
	}
	p.sample(func() { p.QCR.OnFulfill(c, node, peer, item, queries, age, now) })
}

// nsPerCall estimates the mean hook cost from the sampled calls, less the
// in-place cost of an empty timed interval.
func (p *tracedQCR) nsPerCall() float64 {
	if p.sampled == 0 {
		return 0
	}
	return max(0, float64(p.sampledTime-p.emptyTime)/float64(p.sampled))
}
