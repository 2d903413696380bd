package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the CPU time the whole process has used so far, user
// and system, over all threads. Unlike wall time it does not grow while
// the host runs someone else, which makes it the steadier measure of the
// work a job did.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap (runtime/metrics
// /gc/heap/live:bytes, the heap that survived the latest GC) by polling
// it on its own goroutine until Stop.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readLiveHeap()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// Reset starts a new peak window.
func (h *heapSampler) Reset() { h.peak.Store(0) }

// PeakMB returns the peak live heap of the current window in MB.
func (h *heapSampler) PeakMB() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

// Stop ends the sampler and waits for its goroutine.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.done.Wait()
}

// runtimeCounters is a snapshot of the runtime's cumulative GC CPU time,
// total CPU time and allocated bytes.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}

// runtimeDelta returns the GC share of CPU time and the bytes allocated
// between two snapshots. The CPU classes are refreshed at each GC, so
// callers force one before each snapshot.
func runtimeDelta(a, b runtimeCounters) (gcFrac float64, alloc uint64) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	return gcFrac, b.allocBytes - a.allocBytes
}

// snapshotRuntime forces a GC so the CPU classes are current, then reads
// the counters.
func snapshotRuntime() runtimeCounters {
	runtime.GC()
	return readRuntime()
}

// timerCost is the cost of one time.Now + time.Since pair, the overhead a
// sampled span adds on top of the call it times.
func timerCost() time.Duration {
	const n = 1 << 16
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return time.Since(start) / n
}

// ledger splits one traced run's wall time across layers: each row is a
// layer's self time (for runs spread over several workers, the summed
// span time divided by the worker count), and whatever the spans do not
// cover is the unattributed remainder, so the rows add up to the wall.
type ledger struct {
	title string
	wall  time.Duration
	self  map[string]time.Duration
	notes []string
}

func newLedger(title string, wall time.Duration) *ledger {
	return &ledger{title: title, wall: wall, self: map[string]time.Duration{}}
}

func (l *ledger) add(layer string, d time.Duration) { l.self[layer] += d }

func (l *ledger) unattributed() time.Duration {
	rest := l.wall
	for _, d := range l.self {
		rest -= d
	}
	return rest
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger %s: wall %.4fs\n", l.title, l.wall.Seconds())
	share := func(d time.Duration) float64 { return 100 * d.Seconds() / l.wall.Seconds() }
	for _, layer := range ledgerLayers {
		if d, ok := l.self[layer]; ok {
			fmt.Fprintf(w, "  %-12s %9.4fs %6.1f%%\n", layer, d.Seconds(), share(d))
		}
	}
	rest := l.unattributed()
	fmt.Fprintf(w, "  %-12s %9.4fs %6.1f%%\n", "unattributed", rest.Seconds(), share(rest))
	for _, n := range l.notes {
		fmt.Fprintln(w, "  note: "+n)
	}
}

// export writes the ledger rows into the per-layer metrics under the
// workload's prefix.
func (l *ledger) export(prefix string, m map[string]float64) {
	m[prefix+".ledger.wall_s"] = l.wall.Seconds()
	for layer, d := range l.self {
		m[prefix+".ledger."+layer+"_s"] = d.Seconds()
	}
	m[prefix+".ledger.unattributed_s"] = l.unattributed().Seconds()
}

// until reports whether the measurement window that started at start and
// lasts seconds is still open.
func until(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() < seconds
}
