package experiment

import (
	"fmt"
	"math"

	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/meanfield"
	"impatience/internal/parallel"
	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/stats"
	"impatience/internal/trace"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// AblationCacheSize (X1) sweeps the per-node cache size ρ, the knob the
// paper defers to its technical report: loss of QCR and the fixed
// allocations vs OPT as caches grow.
func AblationCacheSize(sc Scenario, rhos []int, f utility.Function) (*plot.Table, error) {
	if rhos == nil {
		rhos = []int{2, 3, 5, 8, 12}
	}
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	table := &plot.Table{Title: "Ablation X1a: loss vs cache size ρ", XLabel: "rho"}
	for _, r := range rhos {
		table.X = append(table.X, float64(r))
	}
	cols := make(map[string][]float64)
	for _, r := range rhos {
		s := sc
		s.Rho = r
		cmp, err := s.RunComparison(f, s.HomogeneousSources(), schemes)
		if err != nil {
			return nil, fmt.Errorf("ablation ρ=%d: %w", r, err)
		}
		for _, sch := range schemes {
			cols[sch] = append(cols[sch], cmp.Loss[sch].Mean)
		}
	}
	for _, sch := range schemes {
		if sch == SchemeOPT {
			continue
		}
		if err := table.AddColumn(sch, cols[sch]); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// AblationPopularity (X1) sweeps the Pareto exponent ω of the demand
// distribution.
func AblationPopularity(sc Scenario, omegas []float64, f utility.Function) (*plot.Table, error) {
	if omegas == nil {
		omegas = []float64{0.25, 0.5, 1, 1.5, 2}
	}
	schemes := append([]string{SchemeQCR}, AllCompetitors...)
	table := &plot.Table{Title: "Ablation X1b: loss vs popularity skew ω", XLabel: "omega"}
	table.X = append([]float64(nil), omegas...)
	cols := make(map[string][]float64)
	for _, w := range omegas {
		s := sc
		s.Omega = w
		cmp, err := s.RunComparison(f, s.HomogeneousSources(), schemes)
		if err != nil {
			return nil, fmt.Errorf("ablation ω=%g: %w", w, err)
		}
		for _, sch := range schemes {
			cols[sch] = append(cols[sch], cmp.Loss[sch].Mean)
		}
	}
	for _, sch := range schemes {
		if sch == SchemeOPT {
			continue
		}
		if err := table.AddColumn(sch, cols[sch]); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// AblationRewriting (X2) compares QCR with and without replica rewriting
// (Section 5.1's two implementations) against OPT.
func AblationRewriting(sc Scenario, f utility.Function) (*plot.Table, error) {
	gen := sc.HomogeneousSources()
	pop := sc.Pop()
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([2]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return [2]float64{}, err
		}
		ro, err := asReopenable(src)
		if err != nil {
			return [2]float64{}, err
		}
		rates, err := trace.EmpiricalRatesFrom(ro)
		if err != nil {
			return [2]float64{}, err
		}
		cfgOpt, err := sc.schemeConfig(SchemeOPT, f, rates, sc.Mu, uint64(trial), false, nil)
		if err != nil {
			return [2]float64{}, err
		}
		cfgs := []sim.Config{cfgOpt}
		for _, rewriting := range []bool{false, true} {
			q := sc.qcrPolicy(f, sc.Mu, true, sc.Seed*7919+uint64(trial))
			q.Rewriting = rewriting
			cfgs = append(cfgs, sim.Config{
				Rho: sc.Rho, Utility: f, Pop: pop, Policy: q,
				Seed: sc.Seed*1_000_003 + uint64(trial)*101, WarmupFrac: sc.WarmupFrac,
			})
		}
		pass, err := ro.Reopen()
		if err != nil {
			return [2]float64{}, err
		}
		results, err := sim.RunBatchSharded(cfgs, pass, 1)
		if err != nil {
			return [2]float64{}, err
		}
		var loss [2]float64 // [no rewriting, rewriting]
		for k := range loss {
			loss[k] = stats.NormalizedLoss(results[k+1].AvgUtilityRate, results[0].AvgUtilityRate)
		}
		return loss, nil
	})
	if err != nil {
		return nil, err
	}
	var lossNo, lossYes []float64
	for _, l := range outs {
		lossNo = append(lossNo, l[0])
		lossYes = append(lossYes, l[1])
	}
	table := &plot.Table{Title: "Ablation X2: rewriting vs no-rewriting (loss vs OPT, %)", XLabel: "trial"}
	for i := range lossNo {
		table.X = append(table.X, float64(i))
	}
	table.AddColumn("no rewriting", lossNo)
	table.AddColumn("rewriting", lossYes)
	return table, nil
}

// MeanFieldConvergence (X3) integrates the Eq. 7 fluid dynamics from a
// uniform start and reports welfare over time against the relaxed
// optimum, demonstrating Property 2 in the deterministic limit.
func MeanFieldConvergence(sc Scenario, f utility.Function, horizon float64, points int) (*plot.Table, error) {
	if horizon <= 0 {
		horizon = 20000
	}
	if points < 2 {
		points = 40
	}
	sys := meanfield.System{
		Utility: f, Pop: sc.Pop(), Mu: sc.Mu, Servers: sc.Nodes, Rho: sc.Rho,
	}
	h := welfare.Homogeneous{
		Utility: f, Pop: sys.Pop, Mu: sc.Mu, Servers: sc.Nodes, Clients: sc.Nodes,
	}
	opt, err := h.RelaxedOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	uOpt := h.Welfare(opt)
	table := &plot.Table{Title: "Ablation X3: mean-field welfare convergence (Eq. 7)", XLabel: "time"}
	x := sys.UniformStart()
	var us, uo []float64
	step := horizon / float64(points)
	for k := 0; k <= points; k++ {
		table.X = append(table.X, float64(k)*step)
		us = append(us, h.Welfare(x))
		uo = append(uo, uOpt)
		if k < points {
			// Keep the integrator step well below the fastest dynamics
			// timescale (~1/(demand·ψ) per item).
			x, err = sys.Run(x, step, math.Min(step/50, 0.25))
			if err != nil {
				return nil, err
			}
		}
	}
	table.AddColumn("U(x(t)) fluid", us)
	table.AddColumn("U(x*) relaxed optimum", uo)
	return table, nil
}

// DynamicDemand (X4) flips the popularity ranking mid-run and tracks how
// the QCR allocation's welfare under the *new* demand recovers — the
// adaptivity claim of Section 7.
func DynamicDemand(sc Scenario, f utility.Function) (*plot.Table, error) {
	pop := sc.Pop()
	flipped := demand.Popularity{Rates: make([]float64, sc.Items)}
	for i, d := range pop.Rates {
		flipped.Rates[sc.Items-1-i] = d
	}
	hNew := welfare.Homogeneous{
		Utility: f, Pop: flipped, Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	optNew, err := hNew.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	uOptNew := hNew.WelfareCounts(optNew)
	gen := sc.HomogeneousSources()
	switchT := sc.Duration / 3
	type trialOut struct{ times, u []float64 }
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) (trialOut, error) {
		src, err := gen(seed)
		if err != nil {
			return trialOut{}, err
		}
		q := sc.qcrPolicy(f, sc.Mu, true, sc.Seed*7919+uint64(trial))
		res, err := sim.Run(sim.Config{
			Rho: sc.Rho, Utility: f, Pop: pop, Policy: q,
			Seed: sc.Seed*1_000_003 + uint64(trial)*101, WarmupFrac: sc.WarmupFrac,
			BinWidth: sc.Duration / 100, RecordCounts: true,
			DemandSwitch: &flipped, DemandSwitchTime: switchT,
		}, src)
		if err != nil {
			return trialOut{}, err
		}
		out := trialOut{
			times: make([]float64, len(res.Bins)),
			u:     make([]float64, len(res.Bins)),
		}
		for i, b := range res.Bins {
			out.times[i] = b.T0
			if b.Counts != nil {
				out.u[i] = hNew.WelfareCounts(b.Counts)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var times []float64
	var trials [][]float64
	for _, out := range outs {
		if times == nil {
			times = out.times
		}
		trials = append(trials, out.u)
	}
	s, err := stats.MergeTrials(times, trials)
	if err != nil {
		return nil, err
	}
	table := &plot.Table{
		Title:  fmt.Sprintf("Ablation X4: welfare under flipped demand (switch at t=%g)", switchT),
		XLabel: "time (min)",
	}
	table.X = times
	table.AddColumn("QCR U(x(t)) under new demand", s.Mean)
	table.AddColumn("optimal for new demand", constant(len(times), uOptNew))
	return table, nil
}

// DiscreteVsContinuous (X5) quantifies the §3.4 claim that the
// discrete-time model approaches the continuous one as δ → 0, on the
// optimal allocation of a default system.
func DiscreteVsContinuous(sc Scenario, f utility.Function, deltas []float64) (*plot.Table, error) {
	if deltas == nil {
		deltas = []float64{4, 2, 1, 0.5, 0.25, 0.1}
	}
	h := welfare.Homogeneous{
		Utility: f, Pop: sc.Pop(), Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	opt, err := h.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	uc := h.WelfareCounts(opt)
	table := &plot.Table{Title: "Ablation X5: discrete-time welfare vs slot length δ", XLabel: "delta"}
	table.X = append([]float64(nil), deltas...)
	var ud, ucs []float64
	for _, d := range deltas {
		ud = append(ud, h.WelfareDiscrete(opt, d))
		ucs = append(ucs, uc)
	}
	table.AddColumn("discrete U_δ(x*)", ud)
	table.AddColumn("continuous U(x*)", ucs)
	return table, nil
}

// ReactionComparison pits the tuned Property-2 reaction against the
// classical path-replication and constant reactions under the same
// utility — showing why tuning to impatience matters (the paper's core
// message distilled into one run).
func ReactionComparison(sc Scenario, f utility.Function) (*plot.Table, error) {
	gen := sc.HomogeneousSources()
	pop := sc.Pop()
	reactions := []struct {
		name string
		mk   func(seed uint64) *core.QCR
	}{
		{"tuned (Property 2)", func(seed uint64) *core.QCR {
			return sc.qcrPolicy(f, sc.Mu, true, seed)
		}},
		{"path replication ψ(y)=y", func(seed uint64) *core.QCR {
			return &core.QCR{Reaction: core.PathReplication(sc.QCRScale), MandateRouting: true, StrictSource: true, MaxMandates: 5, Seed: seed}
		}},
		{"constant ψ(y)=1", func(seed uint64) *core.QCR {
			return &core.QCR{Reaction: core.ConstantReaction(sc.QCRScale), MandateRouting: true, StrictSource: true, MaxMandates: 5, Seed: seed}
		}},
	}
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		ro, err := asReopenable(src)
		if err != nil {
			return nil, err
		}
		rates, err := trace.EmpiricalRatesFrom(ro)
		if err != nil {
			return nil, err
		}
		cfgOpt, err := sc.schemeConfig(SchemeOPT, f, rates, sc.Mu, uint64(trial), false, nil)
		if err != nil {
			return nil, err
		}
		cfgs := []sim.Config{cfgOpt}
		for _, r := range reactions {
			cfgs = append(cfgs, sim.Config{
				Rho: sc.Rho, Utility: f, Pop: pop,
				Policy: r.mk(sc.Seed*7919 + uint64(trial)),
				Seed:   sc.Seed*1_000_003 + uint64(trial)*101, WarmupFrac: sc.WarmupFrac,
			})
		}
		pass, err := ro.Reopen()
		if err != nil {
			return nil, err
		}
		results, err := sim.RunBatchSharded(cfgs, pass, 1)
		if err != nil {
			return nil, err
		}
		loss := make([]float64, len(reactions))
		for k := range reactions {
			loss[k] = stats.NormalizedLoss(results[k+1].AvgUtilityRate, results[0].AvgUtilityRate)
		}
		return loss, nil
	})
	if err != nil {
		return nil, err
	}
	losses := make([][]float64, len(reactions))
	for _, l := range outs {
		for k := range reactions {
			losses[k] = append(losses[k], l[k])
		}
	}
	table := &plot.Table{Title: "Reaction-function comparison (loss vs OPT, %)", XLabel: "trial"}
	for i := 0; i < sc.Trials; i++ {
		table.X = append(table.X, float64(i))
	}
	for k, r := range reactions {
		if err := table.AddColumn(r.name, losses[k]); err != nil {
			return nil, err
		}
	}
	return table, nil
}
