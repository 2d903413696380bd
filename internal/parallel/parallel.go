// Package parallel is the deterministic trial engine of the evaluation
// harness. Every artifact of the paper's evaluation (Figures 3-9, the
// ablations and the robustness experiments) averages independent trials,
// and trials are embarrassingly parallel — provided each trial's RNG
// streams depend only on the trial index, never on scheduling. This
// package enforces exactly that discipline:
//
//   - Per-trial seeds are derived from the scenario's base seed with
//     SplitMix64 (TrialSeed), so trial i's seed is a pure function of
//     (base, i). Two trials never share RNG state.
//   - RunTrials executes the trial function over a bounded worker pool
//     and returns results indexed by trial, so any reduction performed
//     by the caller happens in deterministic trial order.
//
// Together these guarantee the worker-count invariance the golden tests
// in internal/experiment pin down: results are bit-identical at
// workers=1, workers=4 and workers=NumCPU.
//
// The unit of parallelism is one whole trial, not one (trial, scheme)
// pair: inside a trial the schemes share a single contact stream and
// run in lockstep on the batch executor (sim.RunBatchSharded), so splitting
// them across workers would force the stream to be either replayed per
// scheme or materialized — the two costs the batch executor exists to
// avoid. Workers therefore scale across trials while each trial stays
// single-pass.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// golden is the SplitMix64 increment (the odd integer closest to
// 2^64/φ); distinct trial indices map to well-separated stream seeds.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 applies the SplitMix64 finalizer to x: an invertible,
// well-mixing permutation of uint64 (Steele, Lea & Flood, OOPSLA'14).
// It is the seed-derivation primitive behind TrialSeed.
func SplitMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TrialSeed derives the RNG seed of one trial from the base (scenario)
// seed: the trial-th output of a SplitMix64 generator started at base.
// The derivation depends only on (base, trial), which is what makes
// trial results independent of worker count and scheduling order.
func TrialSeed(base uint64, trial int) uint64 {
	return SplitMix64(base + uint64(trial+1)*golden)
}

// Workers resolves a requested worker count: values ≤ 0 mean "one worker
// per available CPU" (GOMAXPROCS).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// RunTrials runs fn for trials 0..n-1 over a pool of workers (≤ 0 =
// GOMAXPROCS) and returns the per-trial results in trial order. Each
// invocation receives its trial index and the TrialSeed-derived seed for
// that trial. The first error cancels the remaining trials; among trials
// that errored before cancellation took effect, the lowest trial index
// wins, so a deterministic fn yields a deterministic error regardless of
// scheduling.
func RunTrials[T any](n, workers int, baseSeed uint64, fn func(trial int, seed uint64) (T, error)) ([]T, error) {
	return RunTrialsContext(context.Background(), n, workers, baseSeed, fn)
}

// RunTrialsContext is RunTrials with external cancellation: ctx
// cancellation stops dispatching new trials and is reported as the
// context's error unless a trial failed first. A trial that panics
// fails with the panic as its error instead of killing the process.
func RunTrialsContext[T any](ctx context.Context, n, workers int, baseSeed uint64, fn func(trial int, seed uint64) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: %d trials", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for trial := 0; trial < n; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := call(fn, trial, TrialSeed(baseSeed, trial))
			if err != nil {
				return nil, fmt.Errorf("parallel: trial %d: %w", trial, err)
			}
			out[trial] = v
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next       atomic.Int64 // next trial to claim
		mu         sync.Mutex
		firstErr   error
		firstTrial = -1
		wg         sync.WaitGroup
	)
	fail := func(trial int, err error) {
		mu.Lock()
		if firstTrial < 0 || trial < firstTrial {
			firstTrial, firstErr = trial, err
		}
		mu.Unlock()
		cancel()
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				trial := int(next.Add(1)) - 1
				if trial >= n || cctx.Err() != nil {
					return
				}
				v, err := call(fn, trial, TrialSeed(baseSeed, trial))
				if err != nil {
					fail(trial, err)
					return
				}
				out[trial] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("parallel: trial %d: %w", firstTrial, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// call runs one trial, turning a panic into the trial's error.
func call[T any](fn func(trial int, seed uint64) (T, error), trial int, seed uint64) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn(trial, seed)
}
