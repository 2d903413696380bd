package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"impatience/internal/alloc"
	"impatience/internal/experiment"
	"impatience/internal/parallel"
	"impatience/internal/stats"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// paperSchemes is the comparison set of the paper's Figure 4: QCR against
// the five fixed allocations.
var paperSchemes = []string{
	experiment.SchemeQCR, experiment.SchemeOPT, experiment.SchemeUNI,
	experiment.SchemeSQRT, experiment.SchemePROP, experiment.SchemeDOM,
}

// paperCIConf is the confidence level of the closed-form gate. Five
// schemes are checked on every run and every seed, so the level is set
// where a correct program fails it about once in a thousand runs.
const paperCIConf = 0.9998

func paperScenario(seed uint64) experiment.Scenario {
	sc := experiment.Default()
	sc.Seed = seed
	sc.Workers = runtime.GOMAXPROCS(0)
	return sc
}

func paperReport(sc experiment.Scenario) *report {
	return newReport(
		fmt.Sprintf("nodes=%d", sc.Nodes), fmt.Sprintf("items=%d", sc.Items), fmt.Sprintf("rho=%d", sc.Rho),
		fmt.Sprintf("mu=%g", sc.Mu), fmt.Sprintf("duration_min=%g", sc.Duration), fmt.Sprintf("trials=%d", sc.Trials),
		"utility=step:10", "schemes=QCR,OPT,UNI,SQRT,PROP,DOM", fmt.Sprintf("workers=%d", sc.Workers))
}

func runPaper(o options) (*report, error) {
	sc := paperScenario(o.seed)
	u := utility.Step{Tau: 10}
	rep := paperReport(sc)
	heap := startHeapSampler()
	defer heap.Stop()
	var setups, runs, cpus, heaps []float64
	var first *experiment.Comparison
	same := &repeated{name: "summary-identical"}
	start := time.Now()
	for len(runs) < 3 || until(start, o.seconds) {
		runtime.GC()
		heap.Reset()
		cpu0 := cpuTime()
		g := &setupGen{base: sc.HomogeneousSources()}
		cmp, err := sc.RunComparison(u, g.gen, paperSchemes)
		end := time.Now()
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		if err != nil {
			return nil, err
		}
		rep.attempted++
		heaps = append(heaps, heap.PeakMB())
		s, firstContact := g.setups()
		setups = append(setups, s...)
		runs = append(runs, end.Sub(firstContact).Seconds())
		if first == nil {
			first = cmp
			checkClosedForm(rep, sc, u, cmp)
		}
		same.add(sameComparison(first, cmp), "comparison summary identical to the first job's")
	}
	rep.addGate(same)
	rep.note("run_s per job: %s", formatSeconds(runs))
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["run_s"] = median(runs)
	rep.e2e["cpu_s"] = median(cpus)
	rep.e2e["heap_peak_mb"] = median(heaps)
	rep.note("comparisons=%d", len(runs))
	for _, s := range paperSchemes {
		rep.note("%-5s utility %.6f ± %.6f (sd), normalized loss %.3f%%", s, first.Utility[s].Mean, first.Utility[s].Stddev, first.Loss[s].Mean)
	}
	return rep, nil
}

// setupGen wraps a source generator so the run can tell, for every trial,
// how long it took from the trial asking for its source to the first
// contact being requested. The taps add a counter per contact and no
// timing.
type setupGen struct {
	base experiment.SourceGen
	mu   sync.Mutex
	taps []*tap
	asks []time.Time
}

func (g *setupGen) gen(seed uint64) (trace.Source, error) {
	ask := time.Now()
	src, err := g.base(seed)
	if err != nil {
		return nil, err
	}
	t := &tap{src: src}
	g.mu.Lock()
	g.taps = append(g.taps, t)
	g.asks = append(g.asks, ask)
	g.mu.Unlock()
	return t.wrap(), nil
}

// setups returns every trial's setup time and the earliest first contact.
func (g *setupGen) setups() ([]float64, time.Time) {
	var out []float64
	var first time.Time
	for i, t := range g.taps {
		out = append(out, t.first.Sub(g.asks[i]).Seconds())
		if first.IsZero() || t.first.Before(first) {
			first = t.first
		}
	}
	return out, first
}

// checkClosedForm gates each fixed allocation's simulated welfare on the
// paper's closed form (welfare.Homogeneous, pure P2P): the closed-form
// value must lie inside the trials' confidence interval on the mean. OPT
// is checked against the closed-form greedy optimum, which the
// per-trial empirical-rate greedy reproduces on homogeneous contacts.
func checkClosedForm(rep *report, sc experiment.Scenario, u utility.Function, cmp *experiment.Comparison) {
	h := sc.Homogeneous(u)
	pop := sc.Pop()
	want := map[string]alloc.Counts{
		experiment.SchemeUNI:  alloc.Uniform(sc.Items, sc.Nodes, sc.Rho),
		experiment.SchemeSQRT: alloc.Sqrt(pop.Rates, sc.Nodes, sc.Rho),
		experiment.SchemePROP: alloc.Prop(pop.Rates, sc.Nodes, sc.Rho),
		experiment.SchemeDOM:  alloc.Dom(pop.Rates, sc.Nodes, sc.Rho),
	}
	if opt, err := h.GreedyOptimal(sc.Rho); err == nil {
		want[experiment.SchemeOPT] = opt
	} else {
		rep.check("closed-form-OPT", false, "greedy optimum: %v", err)
	}
	for _, s := range paperSchemes {
		counts, ok := want[s]
		if !ok {
			continue
		}
		sum := cmp.Utility[s]
		exact := h.WelfareCounts(counts)
		half := math.Inf(1)
		if sum.N > 1 {
			half = stats.TQuantile(0.5+paperCIConf/2, float64(sum.N-1)) * sum.Stddev / math.Sqrt(float64(sum.N))
		}
		rep.check("closed-form-"+s, math.Abs(sum.Mean-exact) <= half,
			"simulated %.6f ± %.6f (%.2f%% CI), closed form %.6f, z=%.2f",
			sum.Mean, half, 100*paperCIConf, exact, (sum.Mean-exact)/(sum.Stddev/math.Sqrt(float64(sum.N))))
	}
}

// sameComparison reports whether two comparisons carry identical
// summaries for every scheme.
func sameComparison(a, b *experiment.Comparison) bool {
	for _, s := range paperSchemes {
		if a.Utility[s] != b.Utility[s] || a.Loss[s] != b.Loss[s] {
			return false
		}
	}
	return true
}

// aggregate folds per-trial utilities into a Comparison the way
// Scenario.RunComparison does: utility summaries per scheme and the
// normalized loss against the same trial's OPT.
func aggregate(perTrial [][]float64) *experiment.Comparison {
	cmp := &experiment.Comparison{
		Schemes: paperSchemes,
		Utility: map[string]stats.Summary{},
		Loss:    map[string]stats.Summary{},
	}
	opt := -1
	for k, s := range paperSchemes {
		if s == experiment.SchemeOPT {
			opt = k
		}
	}
	for k, s := range paperSchemes {
		var us, ls []float64
		for _, t := range perTrial {
			us = append(us, t[k])
			ls = append(ls, stats.NormalizedLoss(t[k], t[opt]))
		}
		cmp.Utility[s] = stats.Summarize(us)
		cmp.Loss[s] = stats.Summarize(ls)
	}
	return cmp
}

// paperTrial is one traced trial's spans and counts.
type paperTrial struct {
	busy                             time.Duration // the whole trial
	source                           time.Duration // source construction
	prologue                         time.Duration // source → first contact of the rates pass
	ratesPass                        time.Duration // first → last contact of the rates pass
	config                           time.Duration // rates pass end → first simulated contact
	gen                              time.Duration // timed NextBatch calls of the simulated pass
	step                             time.Duration // the rest of the simulated pass
	batches                          int64
	contacts                         int64 // contacts of the simulated pass
	utility                          []float64
	meetings, fulfillments, replicas int
}

// tracedTrial runs one trial of the comparison the way RunComparison
// does — Scenario.RunSchemesBatch over the trial's source — with the
// source tapped: the first pass (the empirical-rates pass, drained
// through Next) is marked by its first and last contact, and the
// reopened second pass (the lockstep simulation) has every NextBatch
// timed.
func tracedTrial(sc experiment.Scenario, u utility.Function, base experiment.SourceGen, trial int, seed uint64, timer time.Duration) (paperTrial, error) {
	a := time.Now()
	src, err := base(seed)
	if err != nil {
		return paperTrial{}, err
	}
	b := time.Now()
	var second *tap
	first := &tap{src: src, onReopen: func(s trace.Source) trace.Source {
		second = &tap{src: s, timed: true}
		return second.wrap()
	}}
	results, err := sc.RunSchemesBatch(paperSchemes, u, first.wrap(), 0, uint64(trial), false, nil)
	c := time.Now()
	if err != nil {
		return paperTrial{}, err
	}
	if second == nil || !first.started || !second.started {
		return paperTrial{}, fmt.Errorf("trial %d: the two contact passes were not both observed", trial)
	}
	pt := paperTrial{
		busy:      c.Sub(a),
		source:    b.Sub(a),
		prologue:  first.first.Sub(b),
		ratesPass: first.last.Sub(first.first),
		config:    second.first.Sub(first.last),
		gen:       second.busy,
		batches:   second.batches,
		contacts:  second.contacts,
		utility:   make([]float64, len(results)),
	}
	pt.step = c.Sub(second.first) - second.busy - time.Duration(second.batches)*timer
	for k, r := range results {
		pt.utility[k] = r.AvgUtilityRate
		pt.meetings += r.Meetings
		pt.fulfillments += r.Fulfillments
		pt.replicas += r.ReplicasMade
	}
	return pt, nil
}

// tracePaper runs the comparison once untraced (the reference summary,
// runtime counters and overhead baseline), then once traced through
// parallel.RunTrials and Scenario.RunSchemesBatch with a tapped source.
func tracePaper(o options) (*report, error) {
	sc := paperScenario(o.seed)
	u := utility.Step{Tau: 10}
	rep := paperReport(sc)
	before := snapshotRuntime()
	t0 := time.Now()
	ref, err := sc.RunComparison(u, sc.HomogeneousSources(), paperSchemes)
	untraced := time.Since(t0)
	after := snapshotRuntime()
	if err != nil {
		return nil, err
	}
	rep.attempted++

	timer := timerCost()
	base := sc.HomogeneousSources()
	runtime.GC()
	tStart := time.Now()
	trials, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) (paperTrial, error) {
		return tracedTrial(sc, u, base, trial, seed, timer)
	})
	wall := time.Since(tStart)
	if err != nil {
		return nil, err
	}
	rep.attempted++

	perTrial := make([][]float64, len(trials))
	var sum paperTrial
	for i, t := range trials {
		perTrial[i] = t.utility
		sum.busy += t.busy
		sum.source += t.source
		sum.prologue += t.prologue
		sum.ratesPass += t.ratesPass
		sum.config += t.config
		sum.gen += t.gen
		sum.step += t.step
		sum.batches += t.batches
		sum.contacts += t.contacts
		sum.meetings += t.meetings
		sum.fulfillments += t.fulfillments
		sum.replicas += t.replicas
	}
	rep.check("traced-reproduces-summary", sameComparison(aggregate(perTrial), ref),
		"per-trial traced results aggregate to the untraced RunComparison summary")
	checkClosedForm(rep, sc, u, ref)

	workers := time.Duration(parallel.Workers(sc.Workers))
	l := newLedger("paper-comparison traced comparison", wall)
	l.add("contact", (sum.source+sum.gen)/workers)
	l.add("trace", sum.ratesPass/workers)
	l.add("experiment", (sum.prologue+sum.config)/workers)
	l.add("sim", sum.step/workers)
	l.add("parallel", (workers*wall-sum.busy)/workers)
	l.notes = append(l.notes,
		fmt.Sprintf("rows are span time summed over the %d trial workers and divided by the worker count", workers),
		"contact = source construction plus the simulated pass's timed NextBatch calls",
		"trace = the empirical-rates pass, which drains the source through Next (its generation included)",
		"experiment = configuration build (OPT greedy, reaction scale) and runner build",
		"parallel = worker time not spent in a trial (idle and load imbalance)")
	rep.ledgers = append(rep.ledgers, l)

	gcFrac, allocB := runtimeDelta(before, after)
	n := float64(sum.contacts)
	trialsN := float64(len(trials))
	L := rep.layer
	L["contact.gen_ns_per_contact"] = float64(sum.gen) / n
	L["trace.rates_pass_s"] = sum.ratesPass.Seconds() / trialsN
	L["experiment.config_s"] = sum.config.Seconds() / trialsN
	L["sim.lockstep_ns_per_contact"] = float64(sum.step) / n
	L["parallel.worker_busy_frac"] = float64(sum.busy) / float64(workers*wall)
	L["paper.sim.meetings"] = float64(sum.meetings)
	L["paper.sim.fulfillments"] = float64(sum.fulfillments)
	L["paper.sim.replicas_made"] = float64(sum.replicas)
	L["paper.runtime.gc_cpu_frac"] = gcFrac
	L["paper.runtime.alloc_bytes_per_contact"] = float64(allocB) / n
	L["paper.bench.trace_overhead_s"] = (wall - untraced).Seconds()
	rep.note("untraced comparison %.4fs, traced %.4fs; %d simulated contacts over %d trials",
		untraced.Seconds(), wall.Seconds(), sum.contacts, len(trials))
	rep.note("core.mandates_created is not observable here: the QCR policy is built inside the experiment harness")
	return rep, nil
}
