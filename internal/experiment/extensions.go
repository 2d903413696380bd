package experiment

import (
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/adaptive"
	"impatience/internal/core"
	"impatience/internal/parallel"
	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/stats"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

// OverheadComparison (X6) tallies the communication cost of each scheme:
// metadata summaries, content transfers (fulfillments + replication) and
// mandate-routing traffic. The fixed allocations look free here, but they
// presuppose a perfect out-of-band control channel to install and
// maintain the allocation — exactly what opportunistic networks lack
// (Section 5's motivation).
func OverheadComparison(sc Scenario, f utility.Function) (*plot.Table, error) {
	gen := sc.HomogeneousSources()
	schemes := []string{SchemeQCR, SchemeOPT, SchemePROP}
	type agg struct{ meta, content, mandates, fulfilled []float64 }
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([][4]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return nil, err
		}
		results, err := sc.RunSchemesBatch(schemes, f, src, sc.Mu, uint64(trial), false, nil)
		if err != nil {
			return nil, err
		}
		rows := make([][4]float64, len(schemes))
		for si, res := range results {
			rows[si] = [4]float64{
				float64(res.Overhead.MetadataMsgs),
				float64(res.Overhead.ContentTransfers),
				float64(res.Overhead.MandateTransfers),
				float64(res.Fulfillments),
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	per := make(map[string]*agg, len(schemes))
	for _, s := range schemes {
		per[s] = &agg{}
	}
	for _, rows := range outs {
		for si, s := range schemes {
			a := per[s]
			a.meta = append(a.meta, rows[si][0])
			a.content = append(a.content, rows[si][1])
			a.mandates = append(a.mandates, rows[si][2])
			a.fulfilled = append(a.fulfilled, rows[si][3])
		}
	}
	table := &plot.Table{
		Title:  "Extension X6: protocol overhead per scheme (mean per run)",
		XLabel: "scheme (0=QCR 1=OPT 2=PROP)",
	}
	for i := range schemes {
		table.X = append(table.X, float64(i))
	}
	cols := []struct {
		name string
		get  func(*agg) []float64
	}{
		{"metadata msgs", func(a *agg) []float64 { return a.meta }},
		{"content transfers", func(a *agg) []float64 { return a.content }},
		{"mandate transfers", func(a *agg) []float64 { return a.mandates }},
		{"fulfillments", func(a *agg) []float64 { return a.fulfilled }},
	}
	for _, c := range cols {
		y := make([]float64, len(schemes))
		for i, s := range schemes {
			y[i] = stats.Summarize(c.get(per[s])).Mean
		}
		if err := table.AddColumn(c.name, y); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// MixedCatalog (X7) exercises per-item delay-utilities (Section 3.2): a
// catalog where even items are deadline content (step) and odd items are
// waiting-cost content (negative power). It compares per-item-tuned QCR
// against a mis-tuned QCR that assumes the whole catalog is deadline
// content, and against the mixed OPT.
func MixedCatalog(sc Scenario) (*plot.Table, error) {
	us := make([]utility.Function, sc.Items)
	for i := range us {
		if i%2 == 0 {
			us[i] = utility.Step{Tau: 10}
		} else {
			us[i] = utility.Power{Alpha: 0}
		}
	}
	pop := sc.Pop()
	hom := welfare.Homogeneous{
		Utilities: us, Pop: pop, Mu: sc.Mu,
		Servers: sc.Nodes, Clients: sc.Nodes, PureP2P: true,
	}
	opt, err := hom.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	gen := sc.HomogeneousSources()
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([3]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return [3]float64{}, err
		}
		base := sim.Config{
			Rho: sc.Rho, Utilities: us, Pop: pop,
			Seed: sc.Seed*1_000_003 + uint64(trial)*101, WarmupFrac: sc.WarmupFrac,
		}
		// Per-item tuned QCR.
		cfgT := base
		cfgT.Policy = &core.QCR{
			PerItemReaction: core.TunedReactions(us, nil, sc.Mu, sc.Nodes, sc.QCRScale),
			MandateRouting:  true,
			StrictSource:    true,
			MaxMandates:     5,
			Seed:            sc.Seed*7919 + uint64(trial),
		}
		// Mis-tuned QCR: believes everything is step content.
		cfgM := base
		cfgM.Policy = &core.QCR{
			Reaction:       core.TunedReaction(utility.Step{Tau: 10}, sc.Mu, sc.Nodes, sc.QCRScale),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    5,
			Seed:           sc.Seed*7919 + uint64(trial),
		}
		// Mixed OPT.
		cfgO := base
		cfgO.Policy = core.Static{Label: "opt"}
		cfgO.Initial = opt
		cfgO.NoSticky = true
		// No static scheme needs empirical rates here, so the three
		// variants run on a single pass of the contact stream.
		results, err := sim.RunBatchSharded([]sim.Config{cfgT, cfgM, cfgO}, src, 1)
		if err != nil {
			return [3]float64{}, err
		}
		return [3]float64{results[0].AvgUtilityRate, results[1].AvgUtilityRate, results[2].AvgUtilityRate}, nil
	})
	if err != nil {
		return nil, err
	}
	var uTuned, uMis, uOpt []float64
	for _, v := range outs {
		uTuned = append(uTuned, v[0])
		uMis = append(uMis, v[1])
		uOpt = append(uOpt, v[2])
	}
	table := &plot.Table{
		Title:  "Extension X7: mixed catalog (step + waiting-cost items)",
		XLabel: "trial",
	}
	for i := range uTuned {
		table.X = append(table.X, float64(i))
	}
	table.AddColumn("QCR per-item tuned", uTuned)
	table.AddColumn("QCR mis-tuned (all step)", uMis)
	table.AddColumn("OPT (mixed greedy)", uOpt)
	return table, nil
}

// AdaptiveImpatience (X9) exercises the Section-7 open problem: QCR that
// learns the population's exponential decay rate ν from per-fulfillment
// consumption feedback instead of knowing it, compared with the
// oracle-tuned QCR and OPT. Output: per-trial utilities plus the final ν̂.
func AdaptiveImpatience(sc Scenario, nu float64) (*plot.Table, error) {
	truth := utility.Exponential{Nu: nu}
	pop := sc.Pop()
	gen := sc.HomogeneousSources()
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([4]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return [4]float64{}, err
		}
		// OPT and the oracle QCR share one lockstep pass; the adaptive
		// policy runs on its own reopened pass of the same contacts (its
		// feedback closure is stateful, so it cannot join the batch
		// without changing RNG consumption order).
		ro, err := asReopenable(src)
		if err != nil {
			return [4]float64{}, err
		}
		adaptivePass, err := ro.Reopen()
		if err != nil {
			return [4]float64{}, err
		}
		results, err := sc.RunSchemesBatch([]string{SchemeOPT, SchemeQCR}, truth, ro, sc.Mu, uint64(trial), false, nil)
		if err != nil {
			return [4]float64{}, err
		}
		resO, resQ := results[0], results[1]
		feedbackRNG := rand.New(rand.NewPCG(sc.Seed^0xfeedbac, uint64(trial)))
		pol := &adaptive.Policy{
			Feedback: func(item int, age float64) bool {
				return feedbackRNG.Float64() < truth.H(age)
			},
			Mu: sc.Mu, Servers: sc.Nodes, Scale: sc.QCRScale,
			Inner: &core.QCR{
				MandateRouting: true, StrictSource: true, MaxMandates: 5,
				Seed: sc.Seed*7919 + uint64(trial),
			},
		}
		resA, err := sim.Run(sim.Config{
			Rho: sc.Rho, Utility: truth, Pop: pop, Policy: pol,
			Seed: sc.Seed*1_000_003 + uint64(trial)*101, WarmupFrac: sc.WarmupFrac,
		}, adaptivePass)
		if err != nil {
			return [4]float64{}, err
		}
		nuHat := math.NaN()
		if hat, ok := pol.LastEstimate(); ok {
			nuHat = hat
		}
		return [4]float64{resA.AvgUtilityRate, resQ.AvgUtilityRate, resO.AvgUtilityRate, nuHat}, nil
	})
	if err != nil {
		return nil, err
	}
	var uAdaptive, uOracle, uOpt, nuHats []float64
	for _, v := range outs {
		uAdaptive = append(uAdaptive, v[0])
		uOracle = append(uOracle, v[1])
		uOpt = append(uOpt, v[2])
		nuHats = append(nuHats, v[3])
	}
	table := &plot.Table{
		Title:  fmt.Sprintf("Extension X9: adaptive impatience estimation (true ν=%g)", nu),
		XLabel: "trial",
	}
	for i := range uAdaptive {
		table.X = append(table.X, float64(i))
	}
	table.AddColumn("QCR adaptive (learned ν)", uAdaptive)
	table.AddColumn("QCR oracle (known ν)", uOracle)
	table.AddColumn("OPT", uOpt)
	table.AddColumn("estimated ν", nuHats)
	return table, nil
}

// DedicatedKiosks (X8) runs the dedicated-node case end to end with the
// negative-log utility — infeasible in pure P2P — and reports QCR's loss
// against the proportional optimum.
func DedicatedKiosks(sc Scenario, servers int) (*plot.Table, error) {
	if servers <= 0 || servers >= sc.Nodes {
		return nil, fmt.Errorf("experiment: %d servers out of %d nodes", servers, sc.Nodes)
	}
	u := utility.NegLog{}
	// Keep the catalog at half the kiosk capacity: with items == capacity
	// every feasible allocation collapses to one copy each and there is
	// nothing to optimize.
	if cap := servers * sc.Rho; sc.Items > cap/2 {
		sc.Items = cap / 2
	}
	pop := sc.Pop()
	hom := welfare.Homogeneous{
		Utility: u, Pop: pop, Mu: sc.Mu,
		Servers: servers, Clients: sc.Nodes - servers,
	}
	opt, err := hom.GreedyOptimal(sc.Rho)
	if err != nil {
		return nil, err
	}
	gen := sc.HomogeneousSources()
	outs, err := parallel.RunTrials(sc.Trials, sc.Workers, sc.Seed, func(trial int, seed uint64) ([2]float64, error) {
		src, err := gen(seed)
		if err != nil {
			return [2]float64{}, err
		}
		base := sim.Config{
			Rho: sc.Rho, Utility: u, Pop: pop,
			ServerCount: servers,
			Seed:        sc.Seed*1_000_003 + uint64(trial)*101, WarmupFrac: sc.WarmupFrac,
		}
		cfgQ := base
		cfgQ.Policy = &core.QCR{
			Reaction:       core.TunedReaction(u, sc.Mu, servers, sc.QCRScale*2),
			MandateRouting: true,
			StrictSource:   true,
			MaxMandates:    5,
			Seed:           sc.Seed*7919 + uint64(trial),
		}
		cfgO := base
		cfgO.Policy = core.Static{Label: "opt"}
		cfgO.Initial = opt
		cfgO.NoSticky = true
		results, err := sim.RunBatchSharded([]sim.Config{cfgQ, cfgO}, src, 1)
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{results[0].AvgUtilityRate, results[1].AvgUtilityRate}, nil
	})
	if err != nil {
		return nil, err
	}
	var uQCR, uOpt []float64
	for _, v := range outs {
		uQCR = append(uQCR, v[0])
		uOpt = append(uOpt, v[1])
	}
	table := &plot.Table{
		Title:  fmt.Sprintf("Extension X8: dedicated kiosks (neglog, %d servers / %d clients)", servers, sc.Nodes-servers),
		XLabel: "trial",
	}
	for i := range uQCR {
		table.X = append(table.X, float64(i))
	}
	table.AddColumn("QCR", uQCR)
	table.AddColumn("OPT (proportional)", uOpt)
	return table, nil
}
