// Command perfbench is the repository's single benchmark. It runs one of
// four named workloads in this process — a streamed community
// simulation, the paper's scheme comparison, the hybrid mean-field engine
// and the aged allocation service under a flash crowd — checks that the
// outputs are correct, and prints the workload's metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload stream-community --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with nothing
// wrapped. With --trace 1 it makes a separate traced run of every
// workload that splits the wall time across the repository's layers by
// timing calls into their public functions from this package, prints the
// per-layer metrics and one layer ledger per workload, and reports the
// tracing overhead against an untraced run of the same work. The program
// under test carries no instrumentation.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 when every correctness gate passed, 1 when a gate
// failed (the JSON line is still printed) and 2 when the run could not be
// set up (no JSON line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric with its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of each workload sees; every workload
// reports all of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"heap_peak_mb", "MB"},
}

// ledgerLayers are the repository modules the traced runs attribute wall
// time to, in ledger order.
var ledgerLayers = []string{
	"rates", "contact", "trace", "sim", "core", "experiment", "parallel",
	"meanfield", "serve", "http",
}

// ledgerRows lists, per workload, the layers its traced run attributes
// time to.
var ledgerRows = map[string][]string{
	"stream": {"rates", "sim", "core", "experiment"},
	"paper":  {"contact", "trace", "sim", "experiment", "parallel"},
	"hybrid": {"experiment", "meanfield"},
	"serve":  {"serve", "http"},
}

// perLayer lists every per-layer metric. The traced run profiles all four
// workloads, so every metric carries a measured value: the layer metrics
// come from the workload that exercises the layer, and the counts, runtime
// figures, overhead and ledger rows are reported per workload under its
// short name.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"rates.sample_ns_per_contact", "ns"},
		{"rates.merge_ns_per_contact", "ns"},
		{"rates.gen_busy_s", "s"},
		{"sim.step_ns_per_contact", "ns"},
		{"sim.serial_contacts_per_s", "1/s"},
		{"sim.contacts_per_s", "1/s"},
		{"sim.init_s", "s"},
		{"core.hook_calls", "count"},
		{"core.hook_ns_per_call", "ns"},
		{"contact.gen_ns_per_contact", "ns"},
		{"trace.rates_pass_s", "s"},
		{"experiment.config_s", "s"},
		{"sim.lockstep_ns_per_contact", "ns"},
		{"parallel.worker_busy_frac", "ratio"},
		{"meanfield.fluid_s", "s"},
		{"sim.probe_contacts", "count"},
		{"sim.hybrid_windows", "count"},
		{"sim.fluid_fraction", "ratio"},
		{"serve.query_p50_ms", "ms"},
		{"serve.query_p99_ms", "ms"},
		{"serve.observe_p50_ms", "ms"},
		{"serve.observe_p90_ms", "ms"},
		{"serve.gen_late_p99_ms", "ms"},
		{"serve.solve_ms", "ms"},
		{"serve.solves_warm", "count"},
		{"serve.solves_cold", "count"},
		{"serve.solves_fallback", "count"},
		{"serve.parse_us", "us"},
		{"serve.fold_us", "us"},
		{"serve.encode_us", "us"},
		{"serve.handler_us.allocation", "us"},
		{"http.transport_us", "us"},
	}
	for _, w := range []string{"stream", "paper", "hybrid"} {
		defs = append(defs,
			metricDef{w + ".sim.meetings", "count"},
			metricDef{w + ".sim.fulfillments", "count"},
			metricDef{w + ".sim.replicas_made", "count"})
	}
	defs = append(defs,
		metricDef{"stream.core.mandates_created", "count"},
		metricDef{"hybrid.core.mandates_created", "count"})
	for _, w := range workloads {
		per := "contact"
		if w.short == "serve" {
			per = "request"
		}
		defs = append(defs,
			metricDef{w.short + ".runtime.gc_cpu_frac", "ratio"},
			metricDef{w.short + ".runtime.alloc_bytes_per_" + per, "B"},
			metricDef{w.short + ".bench.trace_overhead_s", "s"},
			metricDef{w.short + ".ledger.wall_s", "s"})
		for _, l := range ledgerRows[w.short] {
			defs = append(defs, metricDef{w.short + ".ledger." + l + "_s", "s"})
		}
		defs = append(defs, metricDef{w.short + ".ledger.unattributed_s", "s"})
	}
	return defs
}()

// options are the command-line settings shared by every workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workload is one named benchmark input set: its end-to-end run and its
// traced run.
type workload struct {
	name  string
	short string // prefix of the workload's per-layer metrics
	run   func(o options) (*report, error)
	trace func(o options) (*report, error)
}

var workloads = []workload{
	{"stream-community", "stream", runStream, traceStream},
	{"paper-comparison", "paper", runPaper, tracePaper},
	{"hybrid-community", "hybrid", runHybrid, traceHybrid},
	{"serve-flash-crowd", "serve", runServe, traceServe},
}

// report is what one workload run produced.
type report struct {
	params    []string // workload parameters, "key=value"
	attempted int
	failed    int
	gates     []gate
	e2e       map[string]float64
	layer     map[string]float64
	ledgers   []*ledger
	notes     []string // extra human-readable lines
}

// gate is one correctness check.
type gate struct {
	name   string
	ok     bool
	detail string
}

func newReport(params ...string) *report {
	return &report{params: params, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a correctness gate; a failed gate counts as a failed
// operation.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.gates = append(r.gates, gate{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.failed++
	}
}

// repeated gathers one check made on every job of a run into one gate;
// each failing job counts as a failed operation.
type repeated struct {
	name     string
	total    int
	bad      int
	lastBad  string
	lastGood string
}

func (g *repeated) add(ok bool, format string, args ...any) {
	g.total++
	if ok {
		g.lastGood = fmt.Sprintf(format, args...)
		return
	}
	g.bad++
	g.lastBad = fmt.Sprintf(format, args...)
}

// addGate closes a repeated check into the report.
func (r *report) addGate(g *repeated) {
	detail := g.lastGood
	if g.bad > 0 {
		detail = g.lastBad
	}
	r.gates = append(r.gates, gate{name: g.name, ok: g.bad == 0 && g.total > 0,
		detail: fmt.Sprintf("%d of %d jobs passed; %s", g.total-g.bad, g.total, detail)})
	r.failed += g.bad
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, g := range r.gates {
		if !g.ok {
			return false
		}
	}
	return true
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "how long the run measures, seconds")
		traceOn = flag.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end run")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if !(*seconds > 0) || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1}
	var rep *report
	var err error
	if o.trace {
		rep, err = traceAll(o)
	} else {
		rep, err = w.run(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(2)
	}
	printReport(w.name, o, rep)
	if !rep.correct() {
		os.Exit(1)
	}
}

// traceAll makes the traced run of every workload, so that one traced run
// reports every per-layer metric with a measured value, and merges them
// into one report. It runs for about twice --seconds plus a few seconds
// per simulation workload.
func traceAll(o options) (*report, error) {
	all := newReport()
	for _, w := range workloads {
		r, err := w.trace(o)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w.name, err)
		}
		all.notes = append(all.notes, w.name+": "+strings.Join(r.params, " "))
		for _, n := range r.notes {
			all.notes = append(all.notes, "  "+n)
		}
		for _, g := range r.gates {
			g.name = w.short + "/" + g.name
			all.gates = append(all.gates, g)
		}
		all.attempted += r.attempted
		all.failed += r.failed
		for k, v := range r.layer {
			all.layer[k] = v
		}
		for _, l := range r.ledgers {
			l.export(w.short, all.layer)
		}
		all.ledgers = append(all.ledgers, r.ledgers...)
	}
	return all, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printReport(name string, o options, rep *report) {
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("provenance: commit=%s go=%s nproc=%d GOMAXPROCS=%d os=%s/%s\n",
		gitCommit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	if o.trace {
		fmt.Printf("workload: %s seed=%d seconds=%g mode=%s (the traced run profiles every workload)\n", name, o.seed, o.seconds, mode)
	} else {
		fmt.Printf("workload: %s seed=%d seconds=%g mode=%s %s\n", name, o.seed, o.seconds, mode, strings.Join(rep.params, " "))
	}
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, g := range rep.gates {
		verdict := "ok"
		if !g.ok {
			verdict = "FAILED"
		}
		fmt.Printf("gate %-28s %-6s %s\n", g.name, verdict, g.detail)
	}
	for _, l := range rep.ledgers {
		l.print(os.Stdout)
	}
	defs := endToEnd
	values := rep.e2e
	if o.trace {
		defs = perLayer
		values = rep.layer
	}
	res := jsonResult{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Printf("metric %-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rep.attempted, rep.failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, l := range strings.Split(string(packed), "\n") {
			if sha, r, ok := strings.Cut(l, " "); ok && r == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// formatSeconds renders a list of timings compactly.
func formatSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
