package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTrialSeedDistinct checks that derived seeds do not collide across a
// realistic trial range and differ across base seeds.
func TestTrialSeedDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for base := uint64(0); base < 4; base++ {
		for trial := 0; trial < 10_000; trial++ {
			s := TrialSeed(base, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: base=%d trial=%d repeats entry %d", base, trial, prev)
			}
			seen[s] = trial
		}
	}
}

// TestTrialSeedPure checks the derivation is a pure function of (base,
// trial) — the worker-invariance cornerstone.
func TestTrialSeedPure(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		if TrialSeed(42, trial) != TrialSeed(42, trial) {
			t.Fatal("TrialSeed not deterministic")
		}
	}
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Error("different bases produced the same trial-0 seed")
	}
}

// trialValue simulates a seeded trial: a few RNG draws whose sum depends
// only on the seed.
func trialValue(trial int, seed uint64) (float64, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x1234))
	var sum float64
	for k := 0; k < 100; k++ {
		sum += rng.Float64()
	}
	return sum + float64(trial), nil
}

// TestRunTrialsWorkerInvariance is the engine-level determinism
// guarantee: identical results for any worker count.
func TestRunTrialsWorkerInvariance(t *testing.T) {
	const n = 64
	ref, err := RunTrials(n, 1, 7, trialValue)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, runtime.NumCPU(), 0} {
		got, err := RunTrials(n, workers, 7, trialValue)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d trial %d: %v != %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestRunTrialsOrder checks results land at their trial index even when
// completion order is scrambled.
func TestRunTrialsOrder(t *testing.T) {
	out, err := RunTrials(32, 8, 0, func(trial int, seed uint64) (int, error) {
		if trial%3 == 0 {
			time.Sleep(time.Millisecond)
		}
		return trial * trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("trial %d: got %d", i, v)
		}
	}
}

// TestRunTrialsFirstError checks error propagation: the lowest failing
// trial index wins and its error is wrapped with the trial number.
func TestRunTrialsFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := RunTrials(16, workers, 0, func(trial int, seed uint64) (int, error) {
			if trial >= 5 {
				return 0, boom
			}
			return trial, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error %v does not wrap cause", workers, err)
		}
		if !strings.Contains(err.Error(), "trial 5") {
			t.Errorf("workers=%d: error %q does not name the first failing trial", workers, err)
		}
	}
}

// TestRunTrialsContainsPanics: a panicking trial fails the run with an
// error naming it, identically at one and two workers, instead of
// killing the process.
func TestRunTrialsContainsPanics(t *testing.T) {
	var errs []string
	for _, workers := range []int{1, 2} {
		_, err := RunTrials(8, workers, 0, func(trial int, seed uint64) (int, error) {
			if trial == 3 {
				panic(fmt.Sprintf("boom %d", trial))
			}
			return trial, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", workers)
		}
		errs = append(errs, err.Error())
	}
	if want := "parallel: trial 3: panic: boom 3"; errs[0] != want || errs[1] != want {
		t.Errorf("errors %q, want %q at both worker counts", errs, want)
	}
}

// TestRunTrialsCancellation checks an error stops dispatching further
// trials rather than running all n to completion.
func TestRunTrialsCancellation(t *testing.T) {
	var ran atomic.Int64
	_, err := RunTrials(1000, 4, 0, func(trial int, seed uint64) (int, error) {
		ran.Add(1)
		if trial == 0 {
			return 0, fmt.Errorf("early failure")
		}
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := ran.Load(); n > 900 {
		t.Errorf("cancellation ineffective: %d/1000 trials ran", n)
	}
}

// TestRunTrialsContextCancel checks external cancellation surfaces as the
// context error.
func TestRunTrialsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunTrialsContext(ctx, 8, 4, 0, trialValue)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestRunTrialsEdgeCases covers n=0 and negative n.
func TestRunTrialsEdgeCases(t *testing.T) {
	out, err := RunTrials(0, 4, 0, trialValue)
	if err != nil || len(out) != 0 {
		t.Errorf("n=0: %v, %d results", err, len(out))
	}
	if _, err := RunTrials(-1, 4, 0, trialValue); err == nil {
		t.Error("negative n accepted")
	}
}

// TestWorkersDefault pins the GOMAXPROCS fallback.
func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(6); got != 6 {
		t.Errorf("Workers(6) = %d", got)
	}
}
