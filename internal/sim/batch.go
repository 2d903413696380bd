package sim

import (
	"fmt"

	"impatience/internal/trace"
)

// Run executes one simulation over the contact source: a batch of one on
// the lockstep executor. A materialized trace runs as tr.Source().
func Run(cfg Config, src trace.Source) (*Result, error) {
	results, err := RunBatchSharded([]Config{cfg}, src, 1)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunBatchSharded is the simulator's executor: it runs M independent
// simulations in lockstep over one shared contact stream. Every
// configuration gets its own runner — caches, policy, demand process,
// fault timeline, RNGs — and each contact drawn from the source is
// validated once, then fed to every runner in configuration order
// before the next is drawn. One trial therefore costs one trace
// generation and one pass in O(1) contact memory, instead of k
// scheme-passes over a materialized O(N²·µ·T) slice.
//
// shards ≤ 1 steps every runner on the calling goroutine. Larger values
// split the runners across a worker set: the stream is produced (and,
// for trace.Partitionable sources such as the structured rate models,
// generated in parallel sub-streams and re-merged in (T, A, B) order) on
// a producer pipeline, broadcast in chunks, and config i is stepped by
// worker i mod W.
//
// Determinism: a runner's RNG streams are seeded from its own cfg.Seed,
// its policy and fault state are private, and every runner consumes the
// identical validated contact sequence — so Results[i] is bit-identical
// at every shard count and does not depend on its batch neighbours.
// Errors, including panics inside a runner or the source, are selected
// by (contact ordinal, config index), reproducing the serial order of
// first failure regardless of worker scheduling.
func RunBatchSharded(cfgs []Config, src trace.Source, shards int) ([]*Result, error) {
	runners, err := newRunners(cfgs, src)
	if err != nil {
		return nil, err
	}
	if shards <= 1 {
		return runSerial(runners, src)
	}
	return runSharded(runners, src, shards)
}

// newRunners validates the shared source's dimensions and builds one
// runner per configuration, each over a private copy of its config.
func newRunners(cfgs []Config, src trace.Source) ([]*runner, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	if src == nil {
		return nil, fmt.Errorf("sim: nil contact source")
	}
	nodes, duration := src.Nodes(), src.Duration()
	if err := checkSourceDims(nodes, duration); err != nil {
		return nil, err
	}
	runners := make([]*runner, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i]
		r, err := newRunner(&cfg, nodes, duration)
		if err != nil {
			return nil, configErr(len(cfgs), i, err)
		}
		runners[i] = r
	}
	return runners, nil
}

// runSerial is the one-goroutine executor loop. Contacts are drawn in
// batches through the trace.BulkSource seam (buffering only — the source
// consumes its RNG in the identical order) and each is validated once,
// then fed to every runner.
func runSerial(runners []*runner, src trace.Source) (results []*Result, err error) {
	nodes, duration := runners[0].nodes, runners[0].duration
	k := -1 // the config being stepped or finished; -1 inside the source
	defer func() {
		if p := recover(); p != nil {
			results, err = nil, panicErr(k, p)
		}
	}()
	prevT := 0.0
	buf := make([]trace.Contact, contactBatchSize)
	for {
		k = -1
		n := trace.FillBatch(src, buf)
		if n == 0 {
			break
		}
		for _, c := range buf[:n] {
			if err := trace.CheckStreamContact(c, prevT, nodes, duration); err != nil {
				return nil, err
			}
			prevT = c.T
			for k = range runners {
				if err := runners[k].step(c); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := sourceErr(src); err != nil {
		return nil, err
	}
	results = make([]*Result, len(runners))
	for k = range runners {
		res, err := runners[k].finish()
		if err != nil {
			return nil, configErr(len(runners), k, err)
		}
		results[k] = res
	}
	return results, nil
}

// sourceErr surfaces a mid-stream failure of a trace.ErrSource.
func sourceErr(src trace.Source) error {
	if es, ok := src.(trace.ErrSource); ok {
		return es.Err()
	}
	return nil
}

// configErr names the failing configuration of a batch; a batch of one
// (Run) needs no name.
func configErr(n, i int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("sim: batch config %d: %w", i, err)
}

// panicErr turns a recovered panic into the executor's error: one
// inside config k's runner names the config, k < 0 means the contact
// source panicked.
func panicErr(k int, p any) error {
	if k < 0 {
		return fmt.Errorf("sim: contact source panicked: %v", p)
	}
	return fmt.Errorf("sim: batch config %d panicked: %v", k, p)
}
