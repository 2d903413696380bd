package sim

import (
	"runtime"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/trace"
)

// shardScenario builds the structured-rates community scenario the
// sharding suite runs on: a 48-node 4-community model driven through the
// group-decomposed (Partitionable) sampler, and the full config battery
// — static, live QCR, fault-ridden QCR, and an adversarial QCR (churn,
// lossy meetings, dishonest nodes, demand shift) — so the invariance
// claim covers every stateful subsystem at once.
func shardScenario(t *testing.T, seed uint64) ([]Config, *rates.ShardedSource) {
	t.Helper()
	m, err := rates.NewCommunity(rates.CommunityConfig{Nodes: 48, Communities: 4, In: 0.3, Out: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	src, err := rates.NewSharded(m, 500, seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := batchSchemes(t)
	adv := baseConfig(t, &core.QCR{
		Reaction:       core.PathReplication(0.5),
		MandateRouting: true,
		StrictSource:   true,
		MaxMandates:    5,
		Seed:           77,
	})
	adv.Seed = 24
	adv.BinWidth = 100
	adv.RecordDelays = true
	adv.Faults = &faults.Config{
		ChurnRate:    0.001,
		MeanDowntime: 25,
		PLoss:        0.1,
		Seed:         24 ^ 0xbad,
	}
	pop := adv.Pop
	adv.Adversary = &adversary.Config{
		DishonestFrac: 0.2,
		Mult:          25,
		FreeRiderFrac: 0.2,
		Schedule: demand.Schedule{
			{T: 150, Pop: demand.Uniform(pop.Items(), pop.Total())},
			{T: 350, Pop: pop},
		},
		Seed: 24 ^ 0xadbad,
	}
	cfgs = append(cfgs, adv)
	return cfgs, src
}

// reopenFresh hands back an unstarted copy of the sharded source.
func reopenFresh(t *testing.T, src *rates.ShardedSource) trace.Source {
	t.Helper()
	re, err := src.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	return re
}

// TestRunBatchShardedInvariance: result digests must be identical
// across shard counts {2, 3, 4, NumCPU} and the serial loop on the
// community scenario with faults and adversary enabled. Run under -race
// in CI, which also makes this the concurrency-safety proof of the
// producer/worker split.
func TestRunBatchShardedInvariance(t *testing.T) {
	cfgs, src := shardScenario(t, 41)
	want, err := RunBatchSharded(cfgs, reopenFresh(t, src), 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 3, 4, runtime.NumCPU()} {
		cfgs, src := shardScenario(t, 41)
		got, err := RunBatchSharded(cfgs, reopenFresh(t, src), shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i].Digest() != want[i].Digest() {
				t.Errorf("shards=%d scheme %d: digest %#x != serial %#x",
					shards, i, got[i].Digest(), want[i].Digest())
			}
		}
	}
}

// TestRunBatchShardedGolden pins the structured-rate executor path
// bit-for-bit: a fixed scenario's result digests, mixed into one family
// value, must never drift. Regenerate with -run TestRunBatchShardedGolden
// -v when an intentional stream or scoring change lands.
func TestRunBatchShardedGolden(t *testing.T) {
	const golden = uint64(0x5f8bc07aba957725)
	cfgs, src := shardScenario(t, 47)
	results, err := RunBatchSharded(cfgs, reopenFresh(t, src), 2)
	if err != nil {
		t.Fatal(err)
	}
	acc := uint64(0x9e3779b97f4a7c15)
	for _, r := range results {
		acc = parallel.SplitMix64(acc ^ r.Digest())
	}
	t.Logf("digest family: %#016x", acc)
	if acc != golden {
		t.Errorf("digest family %#016x, golden %#016x", acc, golden)
	}
}

// TestRunBatchShardedErrors: the sharded entry point reproduces the
// serial executor's validation failures and its deterministic
// first-error selection on a contract-violating stream.
func TestRunBatchShardedErrors(t *testing.T) {
	cfgs, src := shardScenario(t, 5)
	if _, err := RunBatchSharded(nil, reopenFresh(t, src), 4); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunBatchSharded(cfgs, nil, 4); err == nil {
		t.Error("nil source accepted")
	}
	invalid := func(shards int) error {
		bad, src := shardScenario(t, 5)
		bad[3].Rho = 0
		_, err := RunBatchSharded(bad, reopenFresh(t, src), shards)
		return err
	}
	serialErr := invalid(1)
	if err := invalid(4); err == nil || serialErr == nil || err.Error() != serialErr.Error() {
		t.Errorf("invalid config 3: sharded error %v, serial %v", err, serialErr)
	}

	disordered := func() trace.Source {
		return (&trace.Trace{Nodes: 48, Duration: 100, Contacts: []trace.Contact{
			{T: 50, A: 0, B: 1}, {T: 10, A: 1, B: 2},
		}}).Source()
	}
	serialCfgs, _ := shardScenario(t, 5)
	_, serialErr = RunBatchSharded(serialCfgs, disordered(), 1)
	if serialErr == nil {
		t.Fatal("serial executor accepted out-of-order stream")
	}
	shardCfgs, _ := shardScenario(t, 5)
	_, shardErr := RunBatchSharded(shardCfgs, disordered(), 4)
	if shardErr == nil {
		t.Fatal("sharded executor accepted out-of-order stream")
	}
	if shardErr.Error() != serialErr.Error() {
		t.Errorf("error mismatch:\n  sharded: %v\n  serial:  %v", shardErr, serialErr)
	}
}
