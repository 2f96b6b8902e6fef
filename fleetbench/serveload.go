package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// setupBoots is how many times a run boots its fleet; setup_s is the
// median, and the last fleet booted is the one measured.
const setupBoots = 5

// scheduleSeed seeds the order of arrivals in the serve workloads.
const scheduleSeed = 1

// A serve-light round is phase A for roundOpen at the pinned rate, phase B
// for roundClosed, and, in the untraced run, one repetition of the job
// list. Rounds repeat until the next one would end past the run's
// deadline, so every measurement has parts spread over the whole run.
const (
	roundOpen   = 2 * time.Second
	roundClosed = 2 * time.Second
)

// serveFleet is the router over two plain replicas.
type serveFleet struct {
	replicas []*proc
	front    *proc
}

func (f *serveFleet) procs() []*proc { return append(append([]*proc(nil), f.replicas...), f.front) }
func (f *serveFleet) stop()          { stopAll(f.procs()) }

// reference answers requests from an in-process serve.Server, the bytes
// every routed response must equal.
type reference struct {
	srv *serve.Server
}

func newReference() *reference {
	srv := serve.NewServer(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), MaxInFlight: 64})
	srv.MarkReady()
	return &reference{srv: srv}
}

func (r *reference) do(rq *request) (int, []byte) {
	hr := httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body))
	if rq.ndjson {
		hr.Header.Set("Accept", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes()
}

// references computes every request's expected body in process.
func references(ref *reference, reqs []request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		code, body := ref.do(&reqs[i])
		if code != http.StatusOK {
			return nil, fmt.Errorf("generated %s %s is refused in process (%d): %s", reqs[i].method, reqs[i].path, code, body)
		}
		out[i] = body
	}
	return out, nil
}

// exchange sends rq to addr and reads the whole response.
func exchange(c *http.Client, addr string, rq *request, reqID string) (int, []byte, http.Header, error) {
	hr, err := http.NewRequest(rq.method, "http://"+addr+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, nil, err
	}
	if rq.ndjson {
		hr.Header.Set("Accept", "application/x-ndjson")
	}
	if reqID != "" {
		hr.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// tally counts requests attempted and failed across a run's phases; a
// 2xx whose bytes differ from the reference is both a failure and a
// mismatch.
type tally struct {
	attempted, failed, mismatches, respBytes, okCount atomic.Int64
}

func (t *tally) check(status int, body, want []byte, err error) bool {
	t.attempted.Add(1)
	if err != nil || status < 200 || status > 299 {
		t.failed.Add(1)
		return false
	}
	if !bytes.Equal(body, want) {
		t.failed.Add(1)
		t.mismatches.Add(1)
		return false
	}
	t.okCount.Add(1)
	t.respBytes.Add(int64(len(body)))
	return true
}

func bootServeFleet(ctx context.Context, b *bench, boot int, warm []request, warmRefs [][]byte) (*serveFleet, float64, error) {
	start := time.Now()
	f := &serveFleet{}
	for _, name := range []string{"replica-a", "replica-b"} {
		r, err := startProc(ctx, b, "nanocostd", fmt.Sprintf("%s-%d", name, boot), "-addr", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.replicas = append(f.replicas, r)
	}
	fr, err := startProc(ctx, b, "nanocostfront", fmt.Sprintf("front-%d", boot),
		"-addr", "127.0.0.1:0", "-replicas", f.replicas[0].addr+","+f.replicas[1].addr)
	if err != nil {
		stopAll(f.replicas)
		return nil, 0, err
	}
	f.front = fr
	c := newClient(1)
	defer c.CloseIdleConnections()
	for _, pr := range f.procs() {
		if err := waitReady(ctx, c, pr.addr); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	var t tally
	for i := range warm {
		status, body, _, err := exchange(c, f.front.addr, &warm[i], "")
		if !t.check(status, body, warmRefs[i], err) {
			f.stop()
			return nil, 0, fmt.Errorf("warm-up %s %s: status %d, err %v", warm[i].method, warm[i].path, status, err)
		}
	}
	return f, time.Since(start).Seconds(), nil
}

func runServe(ctx context.Context, b *bench) (outcome, error) {
	p := lightPool(b.seed)
	// The job metrics come from repetitions of the jobs workload's list,
	// at its status poll rate, on fleets of their own.
	pollRate, err := b.spec.pinnedRate("jobs")
	if err != nil {
		return outcome{}, err
	}
	ref := newReference()
	defer ref.srv.Close()
	refs, err := references(ref, p.reqs)
	if err != nil {
		return outcome{}, err
	}
	warm := warmup()
	warmRefs, err := references(ref, warm)
	if err != nil {
		return outcome{}, err
	}

	var (
		setups []float64
		fl     *serveFleet
	)
	gauge := newHostGauge(func() []*proc {
		if fl == nil {
			return nil
		}
		return fl.procs()
	})
	gauge.start()
	for boot := 0; boot < setupBoots; boot++ {
		f, d, err := bootServeFleet(ctx, b, boot, warm, warmRefs)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d)
		if boot+1 < setupBoots {
			f.stop()
		} else {
			fl = f
		}
	}
	defer fl.stop()
	setupSlow := gauge.lap()
	// The traced run takes /metrics deltas over the measured phases.
	admin := newClient(1)
	defer admin.CloseIdleConnections()
	var before, after fleetScrape
	if b.trace {
		if before, err = scrapeFleet(admin, fl); err != nil {
			return outcome{}, err
		}
		admin.CloseIdleConnections() // the measured phases open their own two
	}

	perRound := int(roundOpen.Seconds() * b.rate)
	tracedWindow := time.Duration(0)
	if b.trace {
		tracedWindow = time.Second
	}
	rngs := []*rand.Rand{rand.New(rand.NewSource(scheduleSeed + 1)), rand.New(rand.NewSource(scheduleSeed + 2))}
	var (
		tA, tB  tally
		open    openResult
		windows [][]float64 // phase B's windows, per round
		slowB   []float64   // the host's scale over each round's phase B
		// kindNS is the routed time phase A spent on each kind.
		kindNS = make([]atomic.Int64, len(p.kinds))
		jobs   = newJobRunStats()
		list   = jobsList(b.seed)
	)
	clients := []*http.Client{newClient(1), newClient(1)}
	for _, c := range clients {
		defer c.CloseIdleConnections()
	}
	// The seed draws the request bodies; the order in which the kinds
	// arrive is the same for every seed and every round.
	seq := p.sequence(scheduleSeed, perRound)
	for r := 0; ; r++ {
		roundStart := time.Now()
		from := len(open.latMS)
		o := openLoop(ctx, b.rate, perRound, clients, tracedWindow, func(c *http.Client, i int, traced bool) bool {
			idx := seq[i]
			rid := ""
			var root int64
			if traced {
				rid = fmt.Sprintf("a%d", from+i)
				root = b.spans.newID()
			}
			t0 := time.Now()
			status, body, _, err := exchange(c, fl.front.addr, &p.reqs[idx], rid)
			t1 := time.Now()
			kindNS[p.reqs[idx].kind].Add(t1.Sub(t0).Nanoseconds())
			ok := tA.check(status, body, refs[idx], err)
			if traced {
				b.spans.add(0, root, "front.exchange", rid, t0, t1)
				b.spans.add(0, root, "bench.verify", rid, t1, time.Now())
				b.spans.add(root, 0, "bench.request", rid, t0, time.Now())
			}
			return ok
		})
		open.latMS = append(open.latMS, o.latMS...)
		open.traced = append(open.traced, o.traced...)
		open.genLate = append(open.genLate, o.genLate...)
		open.duration = max(open.duration, o.duration)
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		gauge.start()
		w, _, _, err := closedLoop(ctx, roundClosed, 2, func(c *http.Client, w, _ int) bool {
			idx := p.draw(rngs[w])
			status, body, _, err := exchange(c, fl.front.addr, &p.reqs[idx], "")
			return tB.check(status, body, refs[idx], err)
		})
		if err != nil {
			return outcome{}, err
		}
		windows = append(windows, w)
		slowB = append(slowB, gauge.lap())
		if !b.trace {
			if err := jobs.rep(ctx, b, list, pollRate, 0, r); err != nil {
				return outcome{}, err
			}
			jobs.slow = append(jobs.slow, gauge.lap())
		}
		if time.Now().Add(time.Since(roundStart)).After(b.deadline) {
			break
		}
	}
	sat := rateAtReference(windows, slowB)
	if b.trace {
		if after, err = scrapeFleet(admin, fl); err != nil {
			return outcome{}, err
		}
	}
	rss, err := sumHWM(fl.procs())
	if err != nil {
		return outcome{}, err
	}

	out := outcome{
		attempted:  tA.attempted.Load() + tB.attempted.Load() + jobs.t.attempted.Load(),
		failed:     tA.failed.Load() + tB.failed.Load() + jobs.t.failed.Load(),
		mismatches: tA.mismatches.Load() + tB.mismatches.Load() + jobs.t.mismatches.Load(),
		metrics:    map[string]float64{},
	}
	ceil := float64(open.duration.Milliseconds())
	lat := summarize(open.latMS, ceil)
	p99, p99s, err := lowestP99(open.latMS, ceil)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(os.Stderr, "fleetbench: %s open loop %.0f req/s in %d rounds of %v: %d samples, p50 %.3f ms, p99 %.3f ms (lowest of %.3f), pooled p99 %.3f ms, %d failed\n",
		b.workload, b.rate, len(windows), roundOpen, lat.n, lat.p50, p99, p99s, lat.p99, tA.failed.Load())
	fmt.Fprintf(os.Stderr, "fleetbench: %s closed loop: %.0f 2xx/s at reference speed (median window), %d failed; windows as measured %.0f, host scale per round %.3f\n",
		b.workload, sat, tB.failed.Load(), windows, slowB)
	fmt.Fprintf(os.Stderr, "fleetbench: %s open loop routed time by kind:%s\n", b.workload, kindShares(p, kindNS))

	if !b.trace {
		jobs.report(b.workload)
		fmt.Fprintf(os.Stderr, "fleetbench: %s: set-up %.5f s as measured (median of %d boots), host scale %.3f\n",
			b.workload, median(setups), len(setups), setupSlow)
		m := out.metrics
		m["setup_s"] = median(setups) / setupSlow
		m["lat_p50_ms"] = lat.p50
		m["lat_p99_ms"] = p99
		m["sat_rps"] = sat
		m["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
		m["peak_rss_mb"] = rss
		m["job_local_s"] = timeAtReference(listTotals(jobs.localS), jobs.slow)
		m["job_dist_s"] = timeAtReference(listTotals(jobs.distS), jobs.slow)
		return out, nil
	}

	m := layerMetrics(delta(before.front, after.front), merge(delta(before.replicas[0], after.replicas[0]), delta(before.replicas[1], after.replicas[1])))
	out.metrics = m
	m["serve.resp_kb"] = float64(tA.respBytes.Load()) / math.Max(1, float64(tA.okCount.Load())) / 1024
	m["bench.lat_samples"] = float64(lat.n)
	m["bench.gen_late_ms_p99"] = quantileOf(open.genLate, 0.99)
	m["bench.trace_overhead_pct"] = traceOverheadPct(open)
	var tP tally
	if err := probeServe(ctx, b, fl, ref, p, refs, m, &tP); err != nil {
		return outcome{}, err
	}
	out.mismatches += tP.mismatches.Load()
	for _, k := range []string{"mcjob.eval_ms_per_shard", "mcjob.lease_ms", "mcjob.submit_ms", "mcjob.checkpoint_ms",
		"mcjob.upload_kb", "mcjob.useful_ratio", "mcjob.partials", "mcjob.lease_to_merge_ms_p50"} {
		m[k] = 0 // no jobs run on the serve workloads
	}
	return out, nil
}

// fleetScrape is one /metrics pull of every fleet process.
type fleetScrape struct {
	front    exposition
	replicas []exposition
}

func scrapeFleet(c *http.Client, f *serveFleet) (fleetScrape, error) {
	var s fleetScrape
	var err error
	if s.front, err = scrape(c, f.front.addr); err != nil {
		return s, err
	}
	for _, r := range f.replicas {
		e, err := scrape(c, r.addr)
		if err != nil {
			return s, err
		}
		s.replicas = append(s.replicas, e)
	}
	return s, nil
}

// layerMetrics derives the per-layer counters of the serving tiers from
// the router's and the replicas' /metrics deltas over the measured
// phases.
func layerMetrics(front, replicas exposition) map[string]float64 {
	m := map[string]float64{}
	m["front.retries"] = front.sum("front_retries_total")
	m["front.transport_errors"] = front.sum("front_requests_total", "code", "transport_error")
	m["serve.rejected"] = replicas.sum("nanocostd_requests_total", "code", "429")
	hits := replicas.sum("nanocostd_memo_cache_hits_total", "cache", "serve.figures")
	misses := replicas.sum("nanocostd_memo_cache_misses_total", "cache", "serve.figures")
	m["memo.figures_lookups"] = hits + misses
	m["memo.figures_hit_ratio"] = 0
	if hits+misses > 0 {
		m["memo.figures_hit_ratio"] = hits / (hits + misses)
	}
	poolMetrics(replicas, m)
	return m
}

// poolMetrics adds the worker-pool chunk timings.
func poolMetrics(e exposition, m map[string]float64) {
	m["parallel.wait_ms_mean"], _ = e.histMeanMS("nanocostd_pool_chunk_wait_seconds")
	m["parallel.exec_ms_mean"], m["parallel.chunks"] = e.histMeanMS("nanocostd_pool_chunk_exec_seconds")
}

// kindShares formats each kind's share of the summed per-kind times.
func kindShares(p *pool, ns []atomic.Int64) string {
	total := 0.0
	for i := range ns {
		total += float64(ns[i].Load())
	}
	var s string
	for i, k := range p.kinds {
		s += fmt.Sprintf(" %s %.0f%%", k.name, 100*float64(ns[i].Load())/math.Max(1, total))
	}
	return s
}

func quantileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

// traceOverheadPct compares the median latency of the traced windows
// with the untraced ones.
func traceOverheadPct(r openResult) float64 {
	var on, off []float64
	for i, l := range r.latMS {
		if r.traced[i] {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	base := median(off)
	return (median(on) - base) / base * 100
}

// probeCount is how many distinct pool requests the unloaded probes
// time, and probeReps how often each; the minimum of the repeats is the
// warm-path time of each layer.
const (
	probeCount = 96
	probeReps  = 3
)

// probeServe times, unloaded and one request at a time, the same
// request routed, sent straight to the replica that owns it, and run
// through an in-process handler; and the core evaluations it carries
// called directly.
func probeServe(ctx context.Context, b *bench, fl *serveFleet, ref *reference, p *pool, refs [][]byte, m map[string]float64, t *tally) error {
	routedC, directC := newClient(1), newClient(1)
	defer routedC.CloseIdleConnections()
	defer directC.CloseIdleConnections()
	step := max(1, len(p.reqs)/probeCount)
	var hops, nets, handlers, evalNS []float64
	for k := 0; k < len(p.reqs); k += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		rq := &p.reqs[k]
		rid := fmt.Sprintf("p%d", k)
		root := b.spans.newID()
		t0 := time.Now()
		best := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
		for rep := 0; rep < probeReps; rep++ {
			s0 := time.Now()
			status, body, hdr, err := exchange(routedC, fl.front.addr, rq, rid)
			s1 := time.Now()
			if !t.check(status, body, refs[k], err) {
				return fmt.Errorf("routed probe %s %s: status %d, err %v", rq.method, rq.path, status, err)
			}
			owner := hdr.Get("X-Backend")
			status, body, _, err = exchange(directC, owner, rq, rid)
			s2 := time.Now()
			if !t.check(status, body, refs[k], err) {
				return fmt.Errorf("direct probe %s %s to %s: status %d, err %v", rq.method, rq.path, owner, status, err)
			}
			_, body = ref.do(rq)
			s3 := time.Now()
			if !bytes.Equal(body, refs[k]) {
				t.mismatches.Add(1)
			}
			b.spans.add(0, root, "front.routed", rid, s0, s1)
			b.spans.add(0, root, "serve.direct", rid, s1, s2)
			b.spans.add(0, root, "serve.handler", rid, s2, s3)
			for i, d := range []time.Duration{s1.Sub(s0), s2.Sub(s1), s3.Sub(s2)} {
				best[i] = math.Min(best[i], float64(d.Nanoseconds())/1e6)
			}
		}
		hops = append(hops, best[0]-best[1])
		nets = append(nets, best[1]-best[2])
		handlers = append(handlers, best[2])
		if len(rq.scenarios) > 0 {
			ns, err := timeBest(func() error {
				c0 := time.Now()
				_, _, err := core.EvalBatchCtx(ctx, rq.scenarios)
				b.spans.add(0, root, "core.batch", rid, c0, time.Now())
				return err
			})
			if err != nil {
				return err
			}
			evalNS = append(evalNS, ns/float64(len(rq.scenarios)))
		}
		b.spans.add(root, 0, "probe", rid, t0, time.Now())
	}
	m["front.hop_ms_p50"] = median(hops)
	m["serve.net_ms_p50"] = median(nets)
	m["serve.handler_ms_p50"] = median(handlers)
	m["core.eval_ns"] = median(evalNS)
	return nil
}

// timeBest runs fn probeReps times and returns its fastest time in ns.
func timeBest(fn func() error) (float64, error) {
	best := math.Inf(1)
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = math.Min(best, float64(time.Since(t0).Nanoseconds()))
	}
	return best, nil
}
