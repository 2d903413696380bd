package main

import (
	"fmt"
	"runtime"
	"time"

	"impatience/internal/alloc"
	"impatience/internal/core"
	"impatience/internal/experiment"
	"impatience/internal/meanfield"
	"impatience/internal/parallel"
	"impatience/internal/rates"
	"impatience/internal/sim"
	"impatience/internal/utility"
)

// hybridSchemes are the schemes hybrid-community runs on the mean-field
// engine.
var hybridSchemes = []string{experiment.SchemeQCR, experiment.SchemeUNI}

// hybridDuration is the simulated span of one hybrid-community job, in
// minutes.
const hybridDuration = 180.0

// hybridScenario is the hybrid-community population: the community model
// at N = 10⁵ with 16 items, ρ = 3 and demand scaled to the population
// (0.01 requests per node-minute), on default hybrid options.
func hybridScenario(seed uint64) experiment.Scenario {
	sc := experiment.Default()
	sc.Nodes = communityNodes
	sc.Items = 16
	sc.Rho = 3
	sc.DemandRate = 0.01 * communityNodes
	sc.Duration = hybridDuration
	sc.Trials = 1
	sc.Seed = seed
	sc.Hybrid.Enabled = true
	return sc
}

func hybridReport(sc experiment.Scenario) *report {
	return newReport(
		fmt.Sprintf("nodes=%d", sc.Nodes), fmt.Sprintf("communities=%d", communities),
		fmt.Sprintf("contacts_per_node_min=%g", perNodeRate), "intra=0.7",
		fmt.Sprintf("items=%d", sc.Items), fmt.Sprintf("rho=%d", sc.Rho), fmt.Sprintf("demand_per_min=%g", sc.DemandRate),
		fmt.Sprintf("duration_min=%g", sc.Duration), "utility=step:10", "schemes=QCR,UNI", "hybrid=default")
}

func runHybrid(o options) (*report, error) {
	u := utility.Step{Tau: 10}
	sc := hybridScenario(o.seed)
	rep := hybridReport(sc)
	heap := startHeapSampler()
	defer heap.Stop()
	var setups, runs, cpus, heaps []float64
	var first *experiment.StructuredReport
	fluidGate := &repeated{name: "fluid-no-demotion"}
	digestGate := &repeated{name: "digest-identical"}
	start := time.Now()
	for len(runs) < 3 || until(start, o.seconds) {
		runtime.GC()
		heap.Reset()
		cpu0 := cpuTime()
		t0 := time.Now()
		m, err := communityModel(sc.Nodes, communities)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		r, err := sc.StructuredScale(u, m, hybridSchemes, 0)
		t2 := time.Now()
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		if err != nil {
			return nil, err
		}
		rep.attempted++
		heaps = append(heaps, heap.PeakMB())
		setups = append(setups, t1.Sub(t0).Seconds())
		runs = append(runs, t2.Sub(t1).Seconds())
		fluidGate.add(r.Hybrid && r.FluidFraction > 0 && r.Demotions == 0,
			"fluid fraction %.4f, %d demotions", r.FluidFraction, r.Demotions)
		if first == nil {
			first = r
		}
		digestGate.add(r.DigestFamily == first.DigestFamily,
			"digest family %016x (first job %016x)", r.DigestFamily, first.DigestFamily)
	}
	rep.addGate(fluidGate)
	rep.addGate(digestGate)
	rep.note("run_s per job: %s", formatSeconds(runs))
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["run_s"] = median(runs)
	rep.e2e["cpu_s"] = median(cpus)
	rep.e2e["heap_peak_mb"] = median(heaps)
	rep.note("jobs=%d digest_family=%016x probe_contacts=%d fluid_fraction=%.4f", len(runs), first.DigestFamily, first.Contacts, first.FluidFraction)
	for k, s := range hybridSchemes {
		rep.note("%-4s utility %.6f", s, first.AvgUtility[k])
	}
	return rep, nil
}

// hybridConfigs rebuilds the experiment harness's per-scheme
// configurations and hybrid options for trial 0, so the traced run can
// call sim.RunHybrid itself; the digest gate against
// Scenario.StructuredScale proves the rebuild exact.
func hybridConfigs(sc experiment.Scenario, u utility.Function, mu float64) ([]sim.Config, sim.HybridOptions) {
	qcr := qcrConfig(sc, u, mu, 0)
	uni := sim.Config{
		Rho:        sc.Rho,
		Utility:    u,
		Pop:        sc.Pop(),
		Seed:       sc.Seed * 1_000_003,
		WarmupFrac: sc.WarmupFrac,
		Policy:     core.Static{Label: experiment.SchemeUNI},
		NoSticky:   true,
		Initial:    alloc.Uniform(sc.Items, sc.Nodes, sc.Rho),
	}
	hy := sc.Hybrid
	hy.ContactSeed = parallel.TrialSeed(sc.Seed, 0)
	hy.ReactionScale = reactionScale(sc, u, mu)
	return []sim.Config{qcr, uni}, hy
}

// fluidAlone integrates the QCR block system of the model over the job's
// horizon with nothing else running, syncing at the engine's default
// checkpoint spacing (window/16 with window = duration/16).
func fluidAlone(sc experiment.Scenario, u utility.Function, m *rates.Model, psiScale float64) (time.Duration, error) {
	comms := m.Communities()
	sizes := make([]int, comms)
	block := make([][]float64, comms)
	for k := range sizes {
		sizes[k] = m.CommunitySize(k)
	}
	for k := range block {
		block[k] = make([]float64, comms)
		for l := range block[k] {
			switch {
			case k != l:
				block[k][l] = m.RateAt(m.Member(k, 0), m.Member(l, 0))
			case sizes[k] > 1:
				block[k][l] = m.RateAt(m.Member(k, 0), m.Member(k, 1))
			}
		}
	}
	pop := sc.Pop()
	dem := make([][]float64, comms)
	for k := range dem {
		dem[k] = make([]float64, sc.Items)
		share := float64(sizes[k]) / float64(m.Nodes())
		for i, d := range pop.Rates {
			dem[k][i] = d * share
		}
	}
	b := meanfield.BlockSystem{Utility: u, Sizes: sizes, Block: block, Demand: dem, Rho: sc.Rho, PsiScale: psiScale}
	t0 := time.Now()
	st, err := b.Stepper(b.UniformStart(), 0, 0)
	if err != nil {
		return 0, err
	}
	step := sc.Duration / 256
	for t := step; t < sc.Duration+step/2; t += step {
		if err := st.AdvanceTo(t); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// traceHybrid runs the job once untraced through Scenario.StructuredScale
// (the reference digest, runtime counters and overhead baseline), then
// calls sim.RunHybrid per scheme with the rebuilt configurations and
// times the fluid integration on its own.
func traceHybrid(o options) (*report, error) {
	u := utility.Step{Tau: 10}
	sc := hybridScenario(o.seed)
	rep := hybridReport(sc)
	m, err := communityModel(sc.Nodes, communities)
	if err != nil {
		return nil, err
	}
	before := snapshotRuntime()
	t0 := time.Now()
	ref, err := sc.StructuredScale(u, m, hybridSchemes, 0)
	untraced := time.Since(t0)
	after := snapshotRuntime()
	if err != nil {
		return nil, err
	}
	rep.attempted++

	mu := m.MeanPairRate()
	runtime.GC()
	tStart := time.Now()
	cfgs, hy := hybridConfigs(sc, u, mu)
	tCfg := time.Now()
	results := make([]*sim.Result, len(cfgs))
	for k, cfg := range cfgs {
		r, err := sim.RunHybrid(cfg, m, sc.Duration, hy)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", hybridSchemes[k], err)
		}
		results[k] = r
	}
	wall := time.Since(tStart)
	rep.attempted++

	acc := uint64(0x9e3779b97f4a7c15)
	var windows, probes, meetings, fulfillments, replicas int
	var fluidFrac float64
	for k, r := range results {
		acc = parallel.SplitMix64(acc ^ r.Digest())
		t := r.Hybrid
		rep.check("no-fallback-"+hybridSchemes[k], !t.FellBack && t.Demotions == 0,
			"fell back %v, %d demotions, reason %q", t.FellBack, t.Demotions, t.Reason)
		windows += t.Windows
		fluidFrac += t.FluidFraction / float64(len(results))
		probes += r.Meetings
		meetings += r.Meetings
		fulfillments += r.Fulfillments
		replicas += r.ReplicasMade
	}
	rep.check("traced-matches-untraced", acc == ref.DigestFamily, "traced digest family %016x, untraced %016x", acc, ref.DigestFamily)

	fluid, err := fluidAlone(sc, u, m, hy.ReactionScale)
	if err != nil {
		return nil, err
	}
	l := newLedger("hybrid-community traced job", wall)
	l.add("experiment", tCfg.Sub(tStart))
	l.add("meanfield", fluid)
	l.notes = append(l.notes,
		"meanfield = the QCR block system integrated alone over the same model and horizon",
		"unattributed = RunHybrid's probe events, error controller and state setup, which need spans inside the engine to split",
		"experiment = configuration build (welfare.ReactionScale)")
	rep.ledgers = append(rep.ledgers, l)

	gcFrac, allocB := runtimeDelta(before, after)
	L := rep.layer
	L["meanfield.fluid_s"] = fluid.Seconds()
	L["sim.probe_contacts"] = float64(probes)
	L["sim.hybrid_windows"] = float64(windows)
	L["sim.fluid_fraction"] = fluidFrac
	L["hybrid.sim.meetings"] = float64(meetings)
	L["hybrid.sim.fulfillments"] = float64(fulfillments)
	L["hybrid.sim.replicas_made"] = float64(replicas)
	L["hybrid.core.mandates_created"] = float64(cfgs[0].Policy.(*core.QCR).MandatesCreated())
	L["hybrid.runtime.gc_cpu_frac"] = gcFrac
	if probes > 0 {
		L["hybrid.runtime.alloc_bytes_per_contact"] = float64(allocB) / float64(probes)
	}
	L["hybrid.bench.trace_overhead_s"] = (wall - untraced).Seconds()
	rep.note("untraced job %.4fs, traced job %.4fs, fluid alone %.4fs", untraced.Seconds(), wall.Seconds(), fluid.Seconds())
	return rep, nil
}
