package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"impatience/internal/demand"
	"impatience/internal/serve"
	"impatience/internal/utility"
)

// serve-flash-crowd: an aged server on a loopback listener, driven open
// loop with allocation queries at a fixed rate and observation windows
// whose Pareto ranking rotates every few windows.
const (
	serveItems      = 1000
	serveServers    = 100
	serveRho        = 10
	serveMu         = 0.05
	serveHalfLife   = 60   // estimator half-life, seconds (aged's default)
	serveDrift      = 0.01 // re-solve threshold
	queryRate       = 1000 // allocation queries per second
	observeRate     = 4    // observation windows per second
	rotateEvery     = 4    // windows between rank rotations
	rotateStride    = 37   // items the ranking moves by at each rotation
	firehoseRate    = 100_000
	serveSetups     = 15 // server start-ups timed per run
	failedLatency   = 10 * time.Second
	allocationRoute = "/v1/allocation"
)

func serveConfig() serve.Config {
	return serve.Config{
		Items: serveItems, Servers: serveServers, Rho: serveRho, Mu: serveMu,
		Utility: "step:10", HalfLife: serveHalfLife, Drift: serveDrift,
	}
}

// observeBodies renders the session's observation windows: Pareto (ω = 1)
// demand over the catalog at the firehose rate, ranks starting at a
// seed-chosen offset and rotated by rotateStride items every rotateEvery
// windows, each count jittered by ±10 % from the seed's RNG.
func observeBodies(seed uint64, windows int) [][]byte {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	offset := rng.IntN(serveItems)
	window := 1.0 / observeRate
	base := demand.Pareto(serveItems, 1, firehoseRate)
	out := make([][]byte, windows)
	for w := range out {
		shift := offset + (w/rotateEvery)*rotateStride
		var b bytes.Buffer
		b.WriteString(`{"window_sec":`)
		b.WriteString(strconv.FormatFloat(window, 'g', -1, 64))
		b.WriteString(`,"counts":{`)
		for rank, r := range base.Rates {
			if rank > 0 {
				b.WriteByte(',')
			}
			item := (rank + shift) % serveItems
			c := r * window * (0.9 + 0.2*rng.Float64())
			b.WriteByte('"')
			b.WriteString(strconv.Itoa(item))
			b.WriteString(`":`)
			b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
		}
		b.WriteString("}}")
		out[w] = b.Bytes()
	}
	return out
}

// daemon is a running server on a loopback listener.
type daemon struct {
	hs   *http.Server
	base string
	done chan error
}

// startDaemon builds the server, starts serving on a fresh loopback port,
// waits until /healthz answers and posts the first observation window.
// The server is ready once that window is folded and solved: before it
// the daemon has only an all-zero allocation to serve. wrap, when non-nil,
// wraps the server's handler (the traced run's timing middleware).
func startDaemon(client *http.Client, wrap func(http.Handler) http.Handler, first []byte) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serveConfig())
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("server not ready after 10s: %v", err)
		}
	}
	var r serve.ObserveResponse
	err = postJSON(client, d.base+"/v1/observe", first, &r)
	if err == nil && !r.Resolved {
		err = fmt.Errorf("the first observation window did not solve an allocation")
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// stop shuts the server down and waits for its serve loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: failedLatency,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// job is one scheduled request of the open-loop session.
type job struct {
	seq    int
	window int           // observation window index, -1 for a query
	at     time.Duration // due offset from the session start
	due    time.Time
	late   time.Duration // enqueue − due
	prev   chan struct{} // closed when the previous window completed
	done   chan struct{} // closed when this window completed
}

// outcome is what one request of the session observed.
type outcome struct {
	window   int
	latency  time.Duration // completion − due
	service  time.Duration // completion − send
	late     time.Duration // enqueue − due
	ok       bool
	resolved bool
}

// session drives the daemon open loop for the given span: queries at
// queryRate and one observation window every 1/observeRate seconds, over
// at most conns connections. Windows are sent in order, each after the
// previous one completed, as a single firehose aggregator would.
func session(d *daemon, client *http.Client, bodies [][]byte, span time.Duration, conns int, tagSeq bool) []outcome {
	var jobs []*job
	queries := int(span.Seconds() * queryRate)
	windows := len(bodies)
	qi, wi := 0, 0
	var prev chan struct{}
	for qi < queries || wi < windows {
		qT := time.Duration(qi) * time.Second / queryRate
		wT := time.Duration(wi) * time.Second / observeRate
		if wi < windows && (qi >= queries || wT <= qT) {
			j := &job{window: wi, at: wT, prev: prev, done: make(chan struct{})}
			prev = j.done
			jobs = append(jobs, j)
			wi++
		} else {
			jobs = append(jobs, &job{window: -1, at: qT})
			qi++
		}
	}
	out := make([]outcome, len(jobs))
	feed := make(chan *job, len(jobs)) // holds the whole schedule: the generator never blocks on a slow server
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				out[j.seq] = d.do(client, j, bodies, tagSeq)
			}
		}()
	}
	start := time.Now()
	for i, j := range jobs {
		j.seq = i
		j.due = start.Add(j.at)
		if wait := time.Until(j.due); wait > 0 {
			time.Sleep(wait)
		}
		j.late = time.Since(j.due)
		feed <- j
	}
	close(feed)
	wg.Wait()
	return out
}

// do sends one scheduled request and checks its response.
func (d *daemon) do(client *http.Client, j *job, bodies [][]byte, tagSeq bool) outcome {
	o := outcome{window: j.window, late: j.late}
	if j.window >= 0 && j.prev != nil {
		<-j.prev
	}
	var req *http.Request
	var err error
	if j.window >= 0 {
		req, err = http.NewRequest(http.MethodPost, d.base+"/v1/observe", bytes.NewReader(bodies[j.window]))
	} else {
		req, err = http.NewRequest(http.MethodGet, d.base+allocationRoute, nil)
	}
	sent := time.Now()
	var body []byte
	if err == nil {
		if tagSeq {
			req.Header.Set(seqHeader, strconv.Itoa(j.seq))
		}
		var resp *http.Response
		resp, err = client.Do(req)
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
	}
	end := time.Now()
	if j.done != nil {
		close(j.done)
	}
	o.latency, o.service = end.Sub(j.due), end.Sub(sent)
	if err == nil {
		if j.window >= 0 {
			var r serve.ObserveResponse
			err = json.Unmarshal(body, &r)
			o.resolved = r.Resolved
		} else {
			var r serve.AllocationResponse
			if err = json.Unmarshal(body, &r); err == nil && len(r.Allocation) != serveItems {
				err = fmt.Errorf("allocation has %d items", len(r.Allocation))
			}
		}
	}
	if err != nil {
		o.latency = failedLatency
		return o
	}
	o.ok = true
	return o
}

// sessionStats summarizes a session's outcomes.
type sessionStats struct {
	queries, observes, failed  int
	queryLat, observeLat, late []float64 // ms
	resolved                   []bool    // per window
}

func summarize(out []outcome, windows int) sessionStats {
	s := sessionStats{resolved: make([]bool, windows)}
	for _, o := range out {
		ms := float64(o.latency) / 1e6
		if !o.ok {
			s.failed++
		}
		if o.window >= 0 {
			s.observes++
			s.observeLat = append(s.observeLat, ms)
			s.resolved[o.window] = o.resolved
		} else {
			s.queries++
			s.queryLat = append(s.queryLat, ms)
		}
		s.late = append(s.late, float64(o.late)/1e6)
	}
	return s
}

// reference replays the session's windows through a fresh estimator and
// the server's drift rule, and returns the windows that should have
// re-solved and the estimate at the last re-solve.
func reference(bodies [][]byte) ([]bool, demand.Popularity, error) {
	est, err := serve.NewEstimator(serveItems, serveHalfLife)
	if err != nil {
		return nil, demand.Popularity{}, err
	}
	resolved := make([]bool, len(bodies))
	var solved demand.Popularity
	for w, b := range bodies {
		window, counts, err := serve.ParseObserve(b, serveItems)
		if err != nil {
			return nil, demand.Popularity{}, err
		}
		if err := est.Fold(counts, window); err != nil {
			return nil, demand.Popularity{}, err
		}
		cur := est.Snapshot()
		if cur.Total() > 0 && (solved.Items() == 0 || demand.DriftL1(solved, cur) >= serveDrift) {
			resolved[w] = true
			solved = cur
		}
	}
	return resolved, solved, nil
}

// checkSession gates a finished session: every request answered 200 with
// a parseable body, the re-solve pattern matches the drift rule, and the
// final allocation equals a cold water-fill of the estimate it was
// solved for. bodies holds every window the server saw: the start-up
// window, then the session's. It returns the final allocation response.
func checkSession(rep *report, label string, d *daemon, client *http.Client, bodies [][]byte, s sessionStats) (*serve.AllocationResponse, error) {
	rep.attempted += s.queries + s.observes
	rep.failed += s.failed
	rep.gates = append(rep.gates, gate{name: label + "responses", ok: s.failed == 0,
		detail: fmt.Sprintf("%d of %d requests failed (transport error, non-200 or unparseable body)", s.failed, s.queries+s.observes)})
	want, solvedFor, err := reference(bodies)
	if err != nil {
		return nil, err
	}
	mismatch := 0
	for w, got := range s.resolved {
		if want[w+1] != got {
			mismatch++
		}
	}
	rep.check(label+"resolve-pattern", mismatch == 0, "%d of %d windows disagree with the drift rule on whether to re-solve", mismatch, len(s.resolved))

	resp, err := client.Get(d.base + allocationRoute)
	if err != nil {
		return nil, err
	}
	var final serve.AllocationResponse
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("final allocation: HTTP %d", resp.StatusCode)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&final)
	}
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	f, err := utility.Parse("step:10")
	if err != nil {
		return nil, err
	}
	cold, err := serve.NewSolver(f, serveMu, serveServers, serveRho)
	if err != nil {
		return nil, err
	}
	x, _, _, err := cold.Solve(solvedFor)
	if err != nil {
		return nil, err
	}
	maxDiff := math.Inf(1)
	if len(x) == len(final.Allocation) {
		maxDiff = 0
		for i := range x {
			maxDiff = math.Max(maxDiff, math.Abs(x[i]-final.Allocation[i]))
		}
	}
	rep.check(label+"final-allocation", maxDiff <= 1e-9, "max |served − cold water-fill| = %.3g", maxDiff)
	return &final, nil
}

func serveReport(conns int) *report {
	return newReport(
		fmt.Sprintf("items=%d", serveItems), fmt.Sprintf("servers=%d", serveServers), fmt.Sprintf("rho=%d", serveRho),
		fmt.Sprintf("mu=%g", serveMu), "utility=step:10", fmt.Sprintf("drift=%g", serveDrift),
		fmt.Sprintf("half_life_s=%d", serveHalfLife), fmt.Sprintf("query_rate=%d/s", queryRate),
		fmt.Sprintf("observe_rate=%d/s", observeRate), fmt.Sprintf("rotate_every=%d", rotateEvery), fmt.Sprintf("rotate_stride=%d", rotateStride),
		fmt.Sprintf("firehose=%d/s", firehoseRate), fmt.Sprintf("connections=%d", conns), "loop=open")
}

func runServe(o options) (*report, error) {
	conns := runtime.GOMAXPROCS(0)
	rep := serveReport(conns)
	client := newClient(conns)
	defer client.CloseIdleConnections()

	span := time.Duration(o.seconds * float64(time.Second))
	bodies := observeBodies(o.seed, 1+int(span.Seconds()*observeRate))
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
			client.CloseIdleConnections()
		}
		var ready time.Duration
		var err error
		d, ready, err = startDaemon(client, nil, bodies[0])
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds())
	}
	defer d.stop()

	heap := startHeapSampler()
	runtime.GC()
	heap.Reset()
	cpu0 := cpuTime()
	out := session(d, client, bodies[1:], span, conns, false)
	cpu := cpuTime() - cpu0
	heapMB := heap.PeakMB()
	heap.Stop()
	s := summarize(out, len(bodies)-1)
	if _, err := checkSession(rep, "", d, client, bodies, s); err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["run_s"] = median(s.observeLat) / 1e3
	rep.e2e["cpu_s"] = cpu.Seconds() / span.Seconds()
	rep.e2e["heap_peak_mb"] = heapMB
	rep.note("query_p50_ms %.4f ms (%d queries)", quantile(s.queryLat, 0.5), s.queries)
	rep.note("query_p99_ms %.4f ms", quantile(s.queryLat, 0.99))
	rep.note("observe_p50_ms %.4f ms (%d windows)", quantile(s.observeLat, 0.5), s.observes)
	rep.note("observe_p90_ms %.4f ms", quantile(s.observeLat, 0.9))
	rep.note("generator lateness p99 %.4f ms", quantile(s.late, 0.99))
	return rep, nil
}

// seqHeader carries a request's schedule index in the traced session so
// the timing middleware can pair server-side handler time with the
// client's view of the same request.
const seqHeader = "X-Perfbench-Seq"

// handlerTimer is the traced session's middleware around
// Server.Handler(): it records each request's handler time by schedule
// index, and the total per route.
type handlerTimer struct {
	next    http.Handler
	byseq   []atomic.Int64 // ns, 0 until recorded
	mu      sync.Mutex
	byRoute map[string]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && seq >= 0 && seq < len(h.byseq) {
		h.byseq[seq].Store(int64(d))
	}
	h.mu.Lock()
	h.byRoute[r.URL.Path] += d
	h.mu.Unlock()
}

// traceServe runs an untraced session (the latency percentiles and the
// overhead baseline) and a traced session with the timing middleware,
// then replays the same observation windows through
// serve.ParseObserve → Estimator.Fold → Solver.Solve and times the JSON
// encoding of an allocation on its own.
func traceServe(o options) (*report, error) {
	conns := runtime.GOMAXPROCS(0)
	rep := serveReport(conns)
	client := newClient(conns)
	defer client.CloseIdleConnections()
	span := time.Duration(o.seconds / 2 * float64(time.Second))
	bodies := observeBodies(o.seed, 1+int(span.Seconds()*observeRate))
	windows := bodies[1:]

	d, _, err := startDaemon(client, nil, bodies[0])
	if err != nil {
		return nil, err
	}
	before := snapshotRuntime()
	plain := summarize(session(d, client, windows, span, conns, false), len(windows))
	after := snapshotRuntime()
	final, err := checkSession(rep, "untraced-", d, client, bodies, plain)
	var st serve.StatsResponse
	if err == nil {
		err = getJSON(client, d.base+"/v1/stats", &st)
	}
	d.stop()
	client.CloseIdleConnections()
	if err != nil {
		return nil, err
	}

	var ht *handlerTimer
	d, _, err = startDaemon(client, func(h http.Handler) http.Handler {
		ht = &handlerTimer{next: h, byRoute: map[string]time.Duration{}}
		return ht
	}, bodies[0])
	if err != nil {
		return nil, err
	}
	ht.byseq = make([]atomic.Int64, int(span.Seconds()*queryRate)+len(windows)+1)
	tStart := time.Now()
	out := session(d, client, windows, span, conns, true)
	wall := time.Since(tStart)
	traced := summarize(out, len(windows))
	_, err = checkSession(rep, "traced-", d, client, bodies, traced)
	d.stop()
	if err != nil {
		return nil, err
	}

	var handlerUs, transportUs []float64
	var serviceSum time.Duration
	for seq, oc := range out {
		h := time.Duration(ht.byseq[seq].Load())
		if oc.window >= 0 || !oc.ok || h == 0 {
			continue
		}
		handlerUs = append(handlerUs, float64(h)/1e3)
		transportUs = append(transportUs, float64(oc.service-h)/1e3)
	}
	var handlerSum time.Duration
	for _, oc := range out {
		serviceSum += oc.service
	}
	for _, dur := range ht.byRoute {
		handlerSum += dur
	}
	procs := time.Duration(conns)
	l := newLedger("serve-flash-crowd traced session", wall)
	l.add("serve", handlerSum/procs)
	l.add("http", (serviceSum-handlerSum)/procs)
	l.notes = append(l.notes,
		fmt.Sprintf("rows are busy time summed over the session and divided by the %d connections", conns),
		"serve = time inside Server.Handler() (parse, fold, re-solve, encode) measured by middleware",
		"http = client-observed service time minus handler time (client and server transport, queueing for a connection)",
		"unattributed = connections idle between requests")
	rep.ledgers = append(rep.ledgers, l)

	parse, fold, solve, stats, err := replayObserve(bodies)
	if err != nil {
		return nil, err
	}
	rep.check("replay-solve-counts", stats == st.Solves,
		"replayed solver %+v, server %+v", stats, st.Solves)
	encode, err := encodeCost(final)
	if err != nil {
		return nil, err
	}

	gcFrac, allocB := runtimeDelta(before, after)
	L := rep.layer
	L["serve.query_p50_ms"] = quantile(plain.queryLat, 0.5)
	L["serve.query_p99_ms"] = quantile(plain.queryLat, 0.99)
	L["serve.observe_p50_ms"] = quantile(plain.observeLat, 0.5)
	L["serve.observe_p90_ms"] = quantile(plain.observeLat, 0.9)
	L["serve.gen_late_p99_ms"] = quantile(plain.late, 0.99)
	L["serve.solve_ms"] = solve
	L["serve.solves_warm"] = float64(stats.Warm)
	L["serve.solves_cold"] = float64(stats.Cold)
	L["serve.solves_fallback"] = float64(stats.Fallback)
	L["serve.parse_us"] = parse
	L["serve.fold_us"] = fold
	L["serve.encode_us"] = encode
	L["serve.handler_us.allocation"] = median(handlerUs)
	L["http.transport_us"] = median(transportUs)
	L["serve.runtime.gc_cpu_frac"] = gcFrac
	L["serve.runtime.alloc_bytes_per_request"] = float64(allocB) / float64(plain.queries+plain.observes)
	L["serve.bench.trace_overhead_s"] = (quantile(traced.queryLat, 0.5) - quantile(plain.queryLat, 0.5)) / 1e3
	rep.note("untraced query p50 %.4f ms, traced %.4f ms (the overhead metric is their difference)",
		quantile(plain.queryLat, 0.5), quantile(traced.queryLat, 0.5))
	return rep, nil
}

// replayObserve replays the observation windows through the serving
// layer's public pieces in the server's order and returns the median
// parse and fold times (µs), the median re-solve time (ms) and the
// solver's warm/cold/fallback counts.
func replayObserve(bodies [][]byte) (parseUs, foldUs, solveMs float64, stats serve.SolveStats, err error) {
	f, err := utility.Parse("step:10")
	if err != nil {
		return 0, 0, 0, stats, err
	}
	solver, err := serve.NewSolver(f, serveMu, serveServers, serveRho)
	if err != nil {
		return 0, 0, 0, stats, err
	}
	est, err := serve.NewEstimator(serveItems, serveHalfLife)
	if err != nil {
		return 0, 0, 0, stats, err
	}
	var parses, folds, solves []float64
	var solved demand.Popularity
	for _, b := range bodies {
		t0 := time.Now()
		window, counts, err := serve.ParseObserve(b, serveItems)
		t1 := time.Now()
		if err != nil {
			return 0, 0, 0, stats, err
		}
		if err := est.Fold(counts, window); err != nil {
			return 0, 0, 0, stats, err
		}
		t2 := time.Now()
		parses = append(parses, float64(t1.Sub(t0))/1e3)
		folds = append(folds, float64(t2.Sub(t1))/1e3)
		cur := est.Snapshot()
		if cur.Total() > 0 && (solved.Items() == 0 || demand.DriftL1(solved, cur) >= serveDrift) {
			t3 := time.Now()
			if _, _, _, err := solver.Solve(cur); err != nil {
				return 0, 0, 0, stats, err
			}
			solves = append(solves, float64(time.Since(t3))/1e6)
			solved = cur
		}
	}
	return median(parses), median(folds), median(solves), solver.Stats(), nil
}

// encodeCost times the JSON encoding of the session's final allocation
// response the way the allocation handler writes it, in µs per response.
func encodeCost(resp *serve.AllocationResponse) (float64, error) {
	const n = 2000
	enc := json.NewEncoder(io.Discard)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := enc.Encode(resp); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / 1e3 / n, nil
}

func postJSON(client *http.Client, url string, body []byte, v any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
