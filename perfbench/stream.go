package main

import (
	"fmt"
	"runtime"
	"time"

	"impatience/internal/core"
	"impatience/internal/experiment"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// Community model shared by stream-community and hybrid-community: N
// nodes in 32 communities meeting at 2.45 contacts per node-minute (the
// paper default µ·(N−1) at N = 50), 70 % of them inside the community.
const (
	communityNodes = 100_000
	communities    = 32
	perNodeRate    = 2.45
)

func communityModel(nodes, comms int) (*rates.Model, error) {
	perComm := nodes / comms
	return rates.NewCommunity(rates.CommunityConfig{
		Nodes:       nodes,
		Communities: comms,
		In:          0.7 * perNodeRate / float64(perComm-1),
		Out:         0.3 * perNodeRate / float64(nodes-perComm),
	})
}

// streamDuration is the simulated span of one stream-community job, in
// minutes: about 4.9 M contacts at N = 10⁵.
const streamDuration = 40.0

// streamScenario is the stream-community population: agesim's defaults
// (50 items, ρ = 5, Pareto ω = 1 demand at 2 requests per minute) on the
// community model.
func streamScenario(seed uint64, nodes int, duration float64) experiment.Scenario {
	sc := experiment.Default()
	sc.Nodes = nodes
	sc.Duration = duration
	sc.Seed = seed
	return sc
}

// qcrConfig builds trial's QCR configuration the way the experiment
// harness does for scheme QCR: burst-normalized Property-2 reaction,
// mandate routing, strict source and a mandate cap of |S|/10.
func qcrConfig(sc experiment.Scenario, u utility.Function, mu float64, trial uint64) sim.Config {
	scale := reactionScale(sc, u, mu)
	capM := sc.Nodes / 10
	if capM < 3 {
		capM = 3
	}
	return sim.Config{
		Rho:        sc.Rho,
		Utility:    u,
		Pop:        sc.Pop(),
		Seed:       sc.Seed*1_000_003 + trial*101,
		WarmupFrac: sc.WarmupFrac,
		Policy: &core.QCR{
			Reaction:       core.TunedReaction(u, mu, sc.Nodes, scale),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    capM,
			Seed:           sc.Seed*7919 + trial,
		},
	}
}

// reactionScale is the harness's burst-normalized reaction constant.
func reactionScale(sc experiment.Scenario, u utility.Function, mu float64) float64 {
	h := welfare.Homogeneous{Utility: u, Pop: sc.Pop(), Mu: mu, Servers: sc.Nodes, Clients: sc.Nodes}
	if s, err := h.ReactionScale(sc.Rho, sc.QCRBurst); err == nil && s > 0 {
		return s
	}
	return sc.QCRScale
}

// streamJob is one stream-community job ready to run: the model's
// sharded source and the single QCR configuration.
type streamJob struct {
	src trace.Source
	cfg sim.Config
	qcr *core.QCR
}

// buildStream constructs the model, the source and the configuration,
// everything a job needs before its first contact.
func buildStream(seed uint64, nodes int, duration float64) (*streamJob, time.Duration, time.Duration, error) {
	t0 := time.Now()
	m, err := communityModel(nodes, communities)
	if err != nil {
		return nil, 0, 0, err
	}
	src, err := rates.NewSharded(m, duration, seed, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	sc := streamScenario(seed, nodes, duration)
	cfg := qcrConfig(sc, utility.Step{Tau: 10}, m.MeanPairRate(), 0)
	return &streamJob{src: src, cfg: cfg, qcr: cfg.Policy.(*core.QCR)}, t1.Sub(t0), time.Since(t1), nil
}

// streamRun is the outcome of one executed job.
type streamRun struct {
	cpu      time.Duration // process CPU time of the whole job
	setup    time.Duration // job start → first contact requested
	run      time.Duration // first contact → result
	call     time.Duration // the executor call, runner build included
	contacts int64
	res      *sim.Result
	mandates int
}

// runStreamJob builds and runs one job on the given shard count through
// an untimed tap that only marks when generation starts.
func runStreamJob(seed uint64, nodes int, duration float64, shards int) (*streamRun, error) {
	cpu0 := cpuTime()
	start := time.Now()
	job, _, _, err := buildStream(seed, nodes, duration)
	if err != nil {
		return nil, err
	}
	t := &tap{src: job.src}
	callStart := time.Now()
	res, err := sim.RunBatchSharded([]sim.Config{job.cfg}, t.wrap(), shards)
	end := time.Now()
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	if !t.started {
		return nil, fmt.Errorf("the executor never read the contact source")
	}
	return &streamRun{
		cpu:      cpu,
		setup:    t.first.Sub(start),
		run:      end.Sub(t.first),
		call:     end.Sub(callStart),
		contacts: int64(res[0].Meetings),
		res:      res[0],
		mandates: job.qcr.MandatesCreated(),
	}, nil
}

func streamReport(shards int) *report {
	return newReport(
		fmt.Sprintf("nodes=%d", communityNodes), fmt.Sprintf("communities=%d", communities),
		fmt.Sprintf("contacts_per_node_min=%g", perNodeRate), "intra=0.7",
		fmt.Sprintf("duration_min=%g", streamDuration), "items=50", "rho=5", "demand_per_min=2",
		"utility=step:10", "scheme=QCR", fmt.Sprintf("shards=%d", shards))
}

func runStream(o options) (*report, error) {
	shards := runtime.GOMAXPROCS(0)
	rep := streamReport(shards)
	heap := startHeapSampler()
	defer heap.Stop()
	var setups, runs, cpus, heaps []float64
	var digest uint64
	var contacts int64
	same := &repeated{name: "digest-identical"}
	start := time.Now()
	for len(runs) < 3 || until(start, o.seconds) {
		runtime.GC()
		heap.Reset()
		r, err := runStreamJob(o.seed, communityNodes, streamDuration, shards)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		heaps = append(heaps, heap.PeakMB())
		setups = append(setups, r.setup.Seconds())
		runs = append(runs, r.run.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		d := r.res.Digest()
		if len(runs) == 1 {
			digest, contacts = d, r.contacts
		}
		same.add(d == digest && r.contacts == contacts,
			"digest %016x over %d contacts (first job %016x over %d)", d, r.contacts, digest, contacts)
	}
	rep.addGate(same)
	rep.check("contacts", contacts > 0, "%d contacts per job", contacts)
	rep.note("run_s per job: %s", formatSeconds(runs))
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["run_s"] = median(runs)
	rep.e2e["cpu_s"] = median(cpus)
	rep.e2e["heap_peak_mb"] = median(heaps)
	rep.note("jobs=%d digest=%016x contacts=%d", len(runs), digest, contacts)
	rep.note("contacts_per_s %.6g 1/s (contacts / median run_s)", float64(contacts)/median(runs))
	return rep, nil
}

// traceStream is the traced stream-community run: the nproc-shard job
// untraced (the digest reference and the runtime counters), the serial
// job untraced (the single-core baseline and the tracing-overhead
// reference), the serial job traced, and the standalone drains that split
// generation into sampling and merging.
func traceStream(o options) (*report, error) {
	shards := runtime.GOMAXPROCS(0)
	rep := streamReport(shards)
	before := snapshotRuntime()
	par, err := runStreamJob(o.seed, communityNodes, streamDuration, shards)
	if err != nil {
		return nil, err
	}
	after := snapshotRuntime()
	serial, err := runStreamJob(o.seed, communityNodes, streamDuration, 1)
	if err != nil {
		return nil, err
	}
	rep.attempted += 2
	ref := par.res.Digest()
	rep.check("serial-matches-sharded", serial.res.Digest() == ref,
		"serial %016x, %d shards %016x", serial.res.Digest(), shards, ref)

	timer := timerCost()
	runtime.GC()
	tr, err := tracedStreamJob(o.seed, communityNodes, streamDuration)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	rep.check("traced-matches-untraced", tr.res.Digest() == ref, "traced %016x, untraced %016x", tr.res.Digest(), ref)
	t, pol := tr.tap, tr.pol

	n := float64(t.contacts)
	hookNs := pol.nsPerCall()
	hooks := time.Duration(hookNs * float64(pol.calls))
	timers := time.Duration(t.batches)*timer + pol.emptyTime + time.Duration(pol.sampled)*timer
	call := tr.end.Sub(tr.callStart)
	initTime := t.first.Sub(tr.callStart)
	stepSelf := call - initTime - t.busy - hooks - timers
	l := newLedger("stream-community traced serial job", tr.end.Sub(tr.start))
	l.add("rates", tr.buildRates+t.busy)
	l.add("experiment", tr.buildConfig)
	l.add("sim", initTime+stepSelf)
	l.add("core", hooks)
	l.notes = append(l.notes,
		"rates = model and source construction plus every 4096-contact NextBatch",
		"core = sampled QCR hook time (1 call in 64, less an empty timed interval measured in place) scaled to all calls",
		"experiment = reaction-scale and configuration build (welfare.ReactionScale)",
		fmt.Sprintf("core: %d sampled calls averaged %.1f ns against %.1f ns for an empty interval", pol.sampled,
			float64(pol.sampledTime)/float64(pol.sampled), float64(pol.emptyTime)/float64(pol.sampled)),
		fmt.Sprintf("unattributed includes the %d timer pairs the tracing added", t.batches+int64(pol.sampled)))
	rep.ledgers = append(rep.ledgers, l)

	// Standalone drains: the 32 single-group sub-streams alone (sampling),
	// then the merged stream (sampling plus the 32-way merge).
	sampleNs, mergeNs, err := drainRates(o.seed, communityNodes, streamDuration)
	if err != nil {
		return nil, err
	}

	gcFrac, alloc := runtimeDelta(before, after)
	L := rep.layer
	L["rates.sample_ns_per_contact"] = sampleNs
	L["rates.merge_ns_per_contact"] = mergeNs - sampleNs
	L["rates.gen_busy_s"] = t.busy.Seconds()
	L["sim.step_ns_per_contact"] = float64(stepSelf) / n
	L["sim.serial_contacts_per_s"] = float64(serial.contacts) / serial.run.Seconds()
	L["sim.contacts_per_s"] = float64(par.contacts) / par.run.Seconds()
	L["sim.init_s"] = initTime.Seconds()
	L["core.hook_calls"] = float64(pol.calls)
	L["core.hook_ns_per_call"] = hookNs
	L["stream.sim.meetings"] = float64(par.res.Meetings)
	L["stream.sim.fulfillments"] = float64(par.res.Fulfillments)
	L["stream.sim.replicas_made"] = float64(par.res.ReplicasMade)
	L["stream.core.mandates_created"] = float64(par.mandates)
	L["stream.runtime.gc_cpu_frac"] = gcFrac
	L["stream.runtime.alloc_bytes_per_contact"] = float64(alloc) / float64(par.contacts)
	L["stream.bench.trace_overhead_s"] = (call - serial.call).Seconds()
	rep.note("sharded job %.4fs, serial job %.4fs, traced serial job %.4fs (executor call)",
		par.run.Seconds(), serial.run.Seconds(), call.Seconds())
	rep.note("scaling efficiency %.3f (%d-shard contacts/s over serial contacts/s)",
		L["sim.contacts_per_s"]/L["sim.serial_contacts_per_s"], shards)
	return rep, nil
}

// tracedStream is one traced serial stream-community job.
type tracedStream struct {
	start, callStart, end   time.Time
	buildRates, buildConfig time.Duration
	tap                     *tap
	pol                     *tracedQCR
	res                     *sim.Result
}

// tracedStreamJob builds and runs one job serially with the source's
// NextBatch calls timed and the QCR hooks counted and sampled.
func tracedStreamJob(seed uint64, nodes int, duration float64) (*tracedStream, error) {
	tr := &tracedStream{start: time.Now()}
	job, buildRates, buildConfig, err := buildStream(seed, nodes, duration)
	if err != nil {
		return nil, err
	}
	tr.buildRates, tr.buildConfig = buildRates, buildConfig
	tr.pol = &tracedQCR{QCR: job.qcr, sampleEvery: 64}
	job.cfg.Policy = tr.pol
	tr.tap = &tap{src: job.src, timed: true}
	tr.callStart = time.Now()
	res, err := sim.RunBatchSharded([]sim.Config{job.cfg}, tr.tap.wrap(), 1)
	tr.end = time.Now()
	if err != nil {
		return nil, err
	}
	tr.res = res[0]
	return tr, nil
}

// drainRates times the model's contact generation alone: first the
// Partition(32) single-group sub-streams drained one after another (the
// alias sampling), then the merged stream (sampling plus the 32-way
// merge). It returns nanoseconds per contact for each.
func drainRates(seed uint64, nodes int, duration float64) (sampleNs, mergedNs float64, err error) {
	m, err := communityModel(nodes, communities)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]trace.Contact, 4096)
	drain := func(src trace.Source) int {
		n := 0
		for {
			k := trace.FillBatch(src, buf)
			if k == 0 {
				return n
			}
			n += k
		}
	}
	src, err := rates.NewSharded(m, duration, seed, 0)
	if err != nil {
		return 0, 0, err
	}
	parts, ok := src.Partition(rates.DefaultGroups)
	if !ok {
		return 0, 0, fmt.Errorf("the sharded source refused to partition")
	}
	t0 := time.Now()
	total := 0
	for _, p := range parts {
		total += drain(p)
	}
	sampleNs = float64(time.Since(t0)) / float64(total)

	src, err = rates.NewSharded(m, duration, seed, 0)
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	merged := drain(src)
	mergedNs = float64(time.Since(t0)) / float64(merged)
	if merged != total {
		return 0, 0, fmt.Errorf("merged stream has %d contacts, its partition %d", merged, total)
	}
	return sampleNs, mergedNs, nil
}
