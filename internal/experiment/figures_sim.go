package experiment

import (
	"fmt"

	"impatience/internal/alloc"
	"impatience/internal/parallel"
	"impatience/internal/plot"
	"impatience/internal/stats"
	"impatience/internal/synth"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// Figure3 regenerates the mandate-routing comparison (Figure 3): under
// homogeneous contacts and the waiting-cost utility power(α=0), QCR with
// mandate routing stays near the optimal utility while QCR without it
// drifts away; the replica counts of the five most requested items
// fluctuate around their targets with routing and diverge without.
//
// Returned tables: expected utility U(x(t)); observed utility per bin;
// top-5 replica counts with routing; top-5 replica counts without;
// pending-mandate totals.
func Figure3(sc Scenario) ([]*plot.Table, error) {
	f := utility.Power{Alpha: 0}
	pop := sc.Pop()
	h := welfare.Homogeneous{
		Utility: f, Pop: pop, Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	opt, err := h.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	uOpt := h.WelfareCounts(opt)
	gen := sc.HomogeneousSources()
	schemes := []string{SchemeQCR, SchemeQCRWOM}

	type seriesSet struct {
		expected [][]float64
		observed [][]float64
		mandates [][]float64
		top5     [][][]float64 // [itemRank][trial][bin]
	}
	type trialSeries struct {
		times, exp, obs, man []float64
		tops                 [5][]float64
	}
	// Both variants run on one shared pass of each trial's contact
	// stream (sim.RunBatchSharded); per-scheme results are bit-identical to the
	// former one-scheme-at-a-time collection.
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([]*trialSeries, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		results, err := sc.RunSchemesBatch(schemes, f, src, sc.Mu, uint64(trial), true, nil)
		if err != nil {
			return nil, err
		}
		series := make([]*trialSeries, len(results))
		for k, res := range results {
			ts := &trialSeries{
				times: make([]float64, len(res.Bins)),
				exp:   make([]float64, len(res.Bins)),
				obs:   make([]float64, len(res.Bins)),
				man:   make([]float64, len(res.Bins)),
			}
			for r := range ts.tops {
				ts.tops[r] = make([]float64, len(res.Bins))
			}
			for i, b := range res.Bins {
				ts.times[i] = b.T0
				if b.Counts != nil {
					ts.exp[i] = h.WelfareCounts(b.Counts)
					for r := 0; r < 5 && r < len(b.Counts); r++ {
						ts.tops[r][i] = float64(b.Counts[r])
					}
				}
				ts.obs[i] = b.Gain / (b.T1 - b.T0)
				ts.man[i] = float64(b.Mandates)
			}
			series[k] = ts
		}
		return series, nil
	})
	if err != nil {
		return nil, err
	}
	var times []float64
	sets := make([]*seriesSet, len(schemes))
	for k := range schemes {
		set := &seriesSet{top5: make([][][]float64, 5)}
		for _, trial := range outs {
			ts := trial[k]
			if times == nil {
				times = ts.times
			}
			set.expected = append(set.expected, ts.exp)
			set.observed = append(set.observed, ts.obs)
			set.mandates = append(set.mandates, ts.man)
			for r := 0; r < 5; r++ {
				set.top5[r] = append(set.top5[r], ts.tops[r])
			}
		}
		sets[k] = set
	}
	qcr, wom := sets[0], sets[1]

	mean := func(trials [][]float64) []float64 {
		s, err := stats.MergeTrials(times, trials)
		if err != nil {
			return nil
		}
		return s.Mean
	}

	expT := &plot.Table{Title: "Figure 3a: expected utility U(x(t)) (power α=0)", XLabel: "time (min)"}
	expT.X = times
	expT.AddColumn("QCR", mean(qcr.expected))
	expT.AddColumn("QCRWOM", mean(wom.expected))
	expT.AddColumn("OPT", constant(len(times), uOpt))
	expT.AddColumn("UNI", constant(len(times), h.WelfareCounts(alloc.Uniform(sc.Items, sc.Nodes, sc.Rho))))
	expT.AddColumn("DOM", constant(len(times), h.WelfareCounts(alloc.Dom(pop.Rates, sc.Nodes, sc.Rho))))

	obsT := &plot.Table{Title: "Figure 3b: observed utility (power α=0)", XLabel: "time (min)"}
	obsT.X = times
	obsT.AddColumn("QCR", mean(qcr.observed))
	obsT.AddColumn("QCRWOM", mean(wom.observed))

	repQ := &plot.Table{Title: "Figure 3c: replicas of top-5 items (mandate routing)", XLabel: "time (min)"}
	repQ.X = times
	repW := &plot.Table{Title: "Figure 3d: replicas of top-5 items (no mandate routing)", XLabel: "time (min)"}
	repW.X = times
	for r := 0; r < 5; r++ {
		name := fmt.Sprintf("msg %d (target %d)", r+1, opt[r])
		repQ.AddColumn(name, mean(qcr.top5[r]))
		repW.AddColumn(name, mean(wom.top5[r]))
	}

	manT := &plot.Table{Title: "Figure 3e: pending mandates", XLabel: "time (min)"}
	manT.X = times
	manT.AddColumn("QCR", mean(qcr.mandates))
	manT.AddColumn("QCRWOM", mean(wom.mandates))

	return []*plot.Table{expT, obsT, repQ, repW, manT}, nil
}

func constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Sweep runs RunComparison across a parameter sweep, building a
// loss-vs-parameter table (one column per scheme) — the shape of Figures
// 4, 5b/5c and 6.
func (sc Scenario) Sweep(title, xlabel string, params []float64, mkUtility func(p float64) utility.Function, gen SourceGen, schemes []string) (*plot.Table, error) {
	table := &plot.Table{Title: title, XLabel: xlabel}
	table.X = append([]float64(nil), params...)
	cols := make(map[string][]float64, len(schemes))
	for _, p := range params {
		cmp, err := sc.RunComparison(mkUtility(p), gen, schemes)
		if err != nil {
			return nil, fmt.Errorf("%s at %s=%g: %w", title, xlabel, p, err)
		}
		for _, s := range schemes {
			cols[s] = append(cols[s], cmp.Loss[s].Mean)
		}
	}
	for _, s := range schemes {
		if s == SchemeOPT {
			continue // identically zero
		}
		if err := table.AddColumn(s, cols[s]); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// Figure4Power regenerates the left panel of Figure 4: normalized loss vs
// α for the power utility under homogeneous contacts.
func Figure4Power(sc Scenario, alphas []float64) (*plot.Table, error) {
	if alphas == nil {
		alphas = []float64{-2, -1.5, -1, -0.5, 0, 0.5, 0.9}
	}
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	return sc.Sweep("Figure 4 (left): loss vs α, power utility, homogeneous",
		"alpha", alphas,
		func(a float64) utility.Function { return utility.Power{Alpha: a} },
		sc.HomogeneousSources(), schemes)
}

// Figure4Step regenerates the right panel of Figure 4: normalized loss vs
// τ for the step utility under homogeneous contacts.
func Figure4Step(sc Scenario, taus []float64) (*plot.Table, error) {
	if taus == nil {
		taus = logspace(1, 1000, 7)
	}
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	return sc.Sweep("Figure 4 (right): loss vs τ, step utility, homogeneous",
		"tau", taus,
		func(tau float64) utility.Function { return utility.Step{Tau: tau} },
		sc.HomogeneousSources(), schemes)
}

// Figure5TimeSeries regenerates Figure 5a: hourly-averaged observed
// utility over the conference trace with step impatience (τ = 60 min,
// the "τ=1 hour" setting of the paper). All schemes run on the same
// traces; the diurnal cycle shows as utility collapsing at night.
func Figure5TimeSeries(sc Scenario, conf synth.ConferenceConfig, tau float64) (*plot.Table, error) {
	if tau <= 0 {
		tau = 60
	}
	f := utility.Step{Tau: tau}
	gen := ConferenceTraces(conf).Sourced()
	sc.Duration = float64(conf.Days) * 1440

	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	table := &plot.Table{
		Title:  fmt.Sprintf("Figure 5a: observed utility over time, conference trace (step τ=%g min)", tau),
		XLabel: "time (min)",
	}
	// One shared pass per trial: the trace is generated once and every
	// scheme runs on it in lockstep, instead of once per scheme.
	type trialOut struct {
		times []float64
		obs   [][]float64 // indexed like schemes
	}
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) (trialOut, error) {
		src, err := gen(seed)
		if err != nil {
			return trialOut{}, err
		}
		results, err := sc.RunSchemesBatch(schemes, f, src, 0, uint64(trial), true, nil)
		if err != nil {
			return trialOut{}, err
		}
		out := trialOut{obs: make([][]float64, len(results))}
		for k, res := range results {
			if out.times == nil {
				out.times = make([]float64, len(res.Bins))
				for i, b := range res.Bins {
					out.times[i] = b.T0
				}
			}
			out.obs[k] = make([]float64, len(res.Bins))
			for i, b := range res.Bins {
				out.obs[k][i] = b.Gain / (b.T1 - b.T0)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var times []float64
	for k, scheme := range schemes {
		var trials [][]float64
		for _, out := range outs {
			if times == nil {
				times = out.times
				table.X = times
			}
			trials = append(trials, out.obs[k])
		}
		s, err := stats.MergeTrials(times, trials)
		if err != nil {
			return nil, err
		}
		if err := table.AddColumn(scheme, s.Mean); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// Figure5Step regenerates Figure 5b (actual conference trace) or 5c
// (memoryless synthesized counterpart): loss vs τ for the step utility.
func Figure5Step(sc Scenario, conf synth.ConferenceConfig, taus []float64, memoryless bool) (*plot.Table, error) {
	if taus == nil {
		taus = logspace(10, 2000, 6)
	}
	gen := ConferenceTraces(conf)
	label := "actual"
	if memoryless {
		gen = MemorylessOf(gen)
		label = "synthesized memoryless"
	}
	sc.Duration = float64(conf.Days) * 1440
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	return sc.Sweep(
		fmt.Sprintf("Figure 5: loss vs τ, conference trace (%s)", label),
		"tau", taus,
		func(tau float64) utility.Function { return utility.Step{Tau: tau} },
		gen.Sourced(), schemes)
}

// Figure6 regenerates the three vehicular panels: loss vs α (power), vs τ
// (step) and vs ν (exponential) on the Cabspotting-like taxi trace.
func Figure6(sc Scenario, veh synth.VehicularConfig, panel string, params []float64) (*plot.Table, error) {
	gen := VehicularTraces(veh).Sourced()
	sc.Duration = veh.DurationMin
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	switch panel {
	case "power":
		if params == nil {
			params = []float64{-2, -1.5, -1, -0.5, 0, 0.5, 0.9}
		}
		return sc.Sweep("Figure 6a: loss vs α, power utility, vehicular trace",
			"alpha", params,
			func(a float64) utility.Function { return utility.Power{Alpha: a} }, gen, schemes)
	case "step":
		if params == nil {
			params = logspace(5, 1000, 6)
		}
		return sc.Sweep("Figure 6b: loss vs τ, step utility, vehicular trace",
			"tau", params,
			func(tau float64) utility.Function { return utility.Step{Tau: tau} }, gen, schemes)
	case "exp":
		if params == nil {
			params = logspace(1e-4, 10, 6)
		}
		return sc.Sweep("Figure 6c: loss vs ν, exponential utility, vehicular trace",
			"nu", params,
			func(nu float64) utility.Function { return utility.Exponential{Nu: nu} }, gen, schemes)
	default:
		return nil, fmt.Errorf("experiment: unknown Figure 6 panel %q (want power, step or exp)", panel)
	}
}
