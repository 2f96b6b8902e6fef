package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mcjob"
	"repro/internal/yield"
)

// jobSpec is one Monte Carlo job of a job list: the POST /v1/jobs body
// and the same kernel built in process, for the traced run's direct
// calls into mcjob.
type jobSpec struct {
	name   string // list/kind/seed, the key of its pinned result hash
	kind   string
	trials int64
	shards int
	seed   uint64
	body   []byte
	kernel func() (mcjob.Kernel, error)
}

// jobScenario is the montecarlo kind's base scenario.
var jobScenario = scenarioParams{lambda: 0.18, yield: 0.6, transistors: 1e7, sd: 300, wafers: 5000}

// jobsList is the jobs workload's list: one job per kernel kind, all run
// with checkpointing on. The Monte Carlo seed cycles through four values
// so each has a pinned result.
func jobsList(benchSeed int64) []jobSpec {
	const (
		shards       = 16
		defectTrials = 40_000_000
		layoutTrials = 300_000
		costTrials   = 4_000_000
		wafers       = 2_000
	)
	seed := uint64(((benchSeed%4)+4)%4) + 1
	mk := func(kind string, trials int64, spec any, kernel func() (mcjob.Kernel, error)) jobSpec {
		body := map[string]any{"kind": kind, "trials": trials, "shards": shards, "seed": seed, "checkpoint": true}
		key := map[string]string{"defect": "defect", "layoutdefect": "layout_defect", "montecarlo": "montecarlo", "wafermap": "wafermap"}[kind]
		body[key] = spec
		return jobSpec{name: fmt.Sprintf("jobs/%s/seed%d", kind, seed), kind: kind, trials: trials,
			shards: shards, seed: seed, body: mustJSON(body), kernel: kernel}
	}
	wm := yield.WaferMapConfig{UsableRadiusMM: 145, DieWMM: 10, DieHMM: 12, Lambda: 0.8, ClusterAlpha: 2, Wafers: int(wafers), Seed: seed}
	return []jobSpec{
		mk("defect", defectTrials, mcjob.DefectSpec{Lambda: 0.9}, func() (mcjob.Kernel, error) {
			return mcjob.NewDefectKernel(mcjob.DefectSpec{Lambda: 0.9})
		}),
		mk("layoutdefect", layoutTrials, mcjob.LayoutDefectSpec{Style: "sram", MeanDefects: 1.5}, func() (mcjob.Kernel, error) {
			return mcjob.NewLayoutDefectKernel(mcjob.LayoutDefectSpec{Style: "sram", MeanDefects: 1.5})
		}),
		mk("montecarlo", costTrials, map[string]any{
			"scenario": jobScenario.body(),
			"yield":    map[string]any{"kind": "uniform", "lo": 0.3, "hi": 0.9},
			"sd":       map[string]any{"kind": "lognormal", "median": 400, "sigma": 1.3},
		}, func() (mcjob.Kernel, error) {
			return mcjob.NewCostKernel(core.UncertainScenario{Base: jobScenario.coreScenario(),
				Yield: core.Uniform(0.3, 0.9), Sd: core.LogNormal(400, 1.3)})
		}),
		mk("wafermap", wafers, map[string]any{
			"usable_radius_mm": wm.UsableRadiusMM, "die_w_mm": wm.DieWMM, "die_h_mm": wm.DieHMM,
			"lambda": wm.Lambda, "cluster_alpha": wm.ClusterAlpha,
		}, func() (mcjob.Kernel, error) { return mcjob.NewWaferMapKernel(wm) }),
	}
}

// pinnedResults are the sha256s of the result bodies, which depend only
// on the job spec; a change in them is a change in the numbers a job
// computes.
var pinnedResults = map[string]string{
	"jobs/defect/seed1":       "d8728a34612439b5faf7736fc6c72c053aa152fb61c5b33dde03224b6a668ca8",
	"jobs/layoutdefect/seed1": "065844aac6a88db5b0b7dd0bc1cf974a42628624a5931564aa8fd7ead4e30279",
	"jobs/montecarlo/seed1":   "6c8b961189c7b89c86fee2feb80e78d6d9f76c317e4d5639de67be01c8ab8a29",
	"jobs/wafermap/seed1":     "a3bc3bb91b4b00348f166f6668fc354fd445be7c98fd89913b1527870f78dbdf",
	"jobs/defect/seed2":       "b8a1e5cf85edf3a15d6af765a949de9f66b5d6fcbde3c3f3c8c52d7d4e286b76",
	"jobs/layoutdefect/seed2": "8c0c0d98cd4ae5b79fa01e479d5e2ab61a53369d18106414ce6269c413a982dc",
	"jobs/montecarlo/seed2":   "6b75c64104f4145ba3d3329bdb96949e6807a6f0e4ae63947997c09a0a5577c3",
	"jobs/wafermap/seed2":     "f99962f89679a001f148c06a7b6d902e2fc3f9135ccd6a5d9c91df0d850afbac",
	"jobs/defect/seed3":       "7eeaa8992e5ee071d99f5cab864fa4a97d0c9d008bc302e69e94c54be5e6c594",
	"jobs/layoutdefect/seed3": "6b6a7c3f53980263c27715e8212d44ea50acb8344f572be145a44282cb12d4ba",
	"jobs/montecarlo/seed3":   "648e2aa980ba7265075e529525419b04b2ae84d8fd3b70283d50984999ad502c",
	"jobs/wafermap/seed3":     "70025ca6ab4247f9c6827cba9d3ba52987bb3ea6dcc37ecbad1e8eb350616d70",
	"jobs/defect/seed4":       "53de1b141d23469435114f509a1988c6611d4d1a1a46a8c2fad6c34b2bcc92a1",
	"jobs/layoutdefect/seed4": "3eb3a44907d5ccaab040430b5b69eb13663546c6ae01d1a4daec008bd089c664",
	"jobs/montecarlo/seed4":   "8313ffcf76c263ca3b597b29cdd06c3805c0aa6185c59159db30d1e59f1cdfa3",
	"jobs/wafermap/seed4":     "56485ca9722630229ac13dd148c9d41a0f27e0287d23dd46ed5c5599d3eaeccb",
}

// jobRunStats collects a job list's repetitions. localS and distS hold
// each repetition's per-job seconds, submit to checked result, and slow
// the host's scale over each repetition (see hostGauge.lap).
type jobRunStats struct {
	t              tally
	localS, distS  [][]float64
	slow           []float64
	setupS, rssMB  []float64
	pollLat        []float64
	pollTraced     []bool
	genLate        []float64
	localDelta     exposition
	coordDelta     exposition
	leaseToMergeMS []float64
	windows        [][]float64 // closed-loop result fetches, 2xx/s per window, per repetition
}

func newJobRunStats() *jobRunStats {
	return &jobRunStats{localDelta: exposition{}, coordDelta: exposition{}}
}

// rep is one repetition: the list on a plain replica (the mcjob.Run
// path), then on a -distribute coordinator with one -peers worker (the
// lease, upload and merge path), each on fresh processes and checkpoint
// directories. With closedDur > 0 it ends with a closed loop of that
// length fetching the finished results from the coordinator.
func (st *jobRunStats) rep(ctx context.Context, b *bench, list []jobSpec, pollRate float64, closedDur time.Duration, rep int) error {
	// c is for readiness and scrapes; its connections are closed before
	// each list runs, so the list's two are the only ones open.
	c := newClient(1)
	defer c.CloseIdleConnections()
	dir := filepath.Join(b.runDir, fmt.Sprintf("jobs-%d", rep))

	t0 := time.Now()
	local, err := startProc(ctx, b, "nanocostd", fmt.Sprintf("local-%d", rep),
		"-addr", "127.0.0.1:0", "-job-dir", filepath.Join(dir, "local"))
	if err != nil {
		return err
	}
	defer local.stop()
	if err := waitReady(ctx, c, local.addr); err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()
	before, err := scrape(c, local.addr)
	if err != nil {
		return err
	}
	c.CloseIdleConnections()
	secs, bodies, ids, err := st.runList(ctx, b, local.addr, list, pollRate)
	if err != nil {
		return fmt.Errorf("local job list: %w", err)
	}
	st.localS = append(st.localS, secs)
	after, err := scrape(c, local.addr)
	if err != nil {
		return err
	}
	st.localDelta = merge(st.localDelta, delta(before, after))
	rss, err := local.hwmMB()
	if err != nil {
		return err
	}
	local.stop()

	// The lease TTL is 2 s, not the default 10 s. A worker's idle-poll
	// backoff is capped at TTL/2: 1 s here, 5 s at the default, while a
	// job of the list takes about half a second. At the default the worker
	// could sleep through whole jobs, and job_dist_s would time its poll
	// backoff instead of the lease, upload and merge path.
	t1 := time.Now()
	coord, err := startProc(ctx, b, "nanocostd", fmt.Sprintf("coord-%d", rep),
		"-addr", "127.0.0.1:0", "-distribute", "-job-dir", filepath.Join(dir, "coord"),
		"-lease-ttl", "2s", "-worker-id", "coordinator")
	if err != nil {
		return err
	}
	defer coord.stop()
	worker, err := startProc(ctx, b, "nanocostd", fmt.Sprintf("worker-%d", rep),
		"-addr", "127.0.0.1:0", "-peers", coord.addr, "-lease-ttl", "2s", "-worker-id", "worker")
	if err != nil {
		return err
	}
	defer worker.stop()
	dist := []*proc{coord, worker}
	for _, p := range dist {
		if err := waitReady(ctx, c, p.addr); err != nil {
			return err
		}
	}
	setup += time.Since(t1).Seconds()
	before, err = scrape(c, coord.addr)
	if err != nil {
		return err
	}
	c.CloseIdleConnections()
	secs, distBodies, _, err := st.runList(ctx, b, coord.addr, list, pollRate)
	if err != nil {
		return fmt.Errorf("distributed job list: %w", err)
	}
	st.distS = append(st.distS, secs)
	for i := range bodies {
		if !bytes.Equal(bodies[i], distBodies[i]) {
			st.t.mismatches.Add(1)
			st.t.failed.Add(1)
			fmt.Fprintf(os.Stderr, "fleetbench: %s: distributed result differs from local:\n%s%s", list[i].name, bodies[i], distBodies[i])
		}
	}
	after, err = scrape(c, coord.addr)
	if err != nil {
		return err
	}
	st.coordDelta = merge(st.coordDelta, delta(before, after))
	if b.trace {
		for _, id := range ids {
			ms, err := leaseToMerge(c, coord.addr, id)
			if err != nil {
				return err
			}
			st.leaseToMergeMS = append(st.leaseToMergeMS, ms...)
		}
	}
	if closedDur > 0 {
		c.CloseIdleConnections()
		windows, att, failed, err := closedLoop(ctx, closedDur, 2, func(c *http.Client, w, k int) bool {
			i := (2*k + w) % len(ids)
			status, body, _, err := exchange(c, coord.addr, &request{method: "GET", path: "/v1/jobs/" + ids[i] + "/result"}, "")
			ok := err == nil && status == http.StatusOK && bytes.Equal(body, bodies[i])
			if err == nil && status == http.StatusOK && !ok {
				st.t.mismatches.Add(1)
			}
			return ok
		})
		if err != nil {
			return err
		}
		st.windows = append(st.windows, windows)
		st.t.attempted.Add(att)
		st.t.failed.Add(failed)
	}
	distRSS, err := sumHWM(dist)
	if err != nil {
		return err
	}
	st.setupS = append(st.setupS, setup)
	st.rssMB = append(st.rssMB, rss+distRSS)
	return nil
}

// watch is the job the status poller is following; end receives the
// first terminal state a poll reports.
type watch struct {
	id   string
	once sync.Once
	end  chan string
}

// runList submits each job in turn and returns each job's wall time from
// its submit to its checked result. Two connections poll the
// running job's status open loop at pollRate, as a client watching its
// job would; the first poll that reports the job finished releases the
// result fetch.
func (st *jobRunStats) runList(ctx context.Context, b *bench, addr string, list []jobSpec, pollRate float64) ([]float64, [][]byte, []string, error) {
	c := newClient(2)
	defer c.CloseIdleConnections()
	var cur atomic.Pointer[watch]
	pollCtx, stopPoll := context.WithCancel(ctx)
	defer stopPoll()
	polled := make(chan openResult, 1)
	polling := false
	finish := func() {
		stopPoll()
		if polling {
			r := <-polled
			st.pollLat = append(st.pollLat, r.latMS...)
			st.pollTraced = append(st.pollTraced, r.traced...)
			st.genLate = append(st.genLate, r.genLate...)
		}
	}
	window := time.Duration(0)
	if b.trace {
		window = 250 * time.Millisecond
	}
	var secs []float64
	var bodies [][]byte
	var ids []string
	for _, js := range list {
		t0 := time.Now()
		id, err := st.submit(c, addr, js)
		if err != nil {
			finish()
			return nil, nil, nil, err
		}
		w := &watch{id: id, end: make(chan string, 1)}
		cur.Store(w)
		if !polling {
			polling = true
			go func() {
				polled <- openLoop(pollCtx, pollRate, int(pollRate*3600), []*http.Client{c, c}, window, st.poll(b, addr, &cur))
			}()
		}
		t1 := time.Now()
		var state string
		select {
		case state = <-w.end:
		case <-ctx.Done():
			finish()
			return nil, nil, nil, ctx.Err()
		}
		if state != "done" {
			finish()
			return nil, nil, nil, fmt.Errorf("job %s ended %q", js.name, state)
		}
		t2 := time.Now()
		body, err := st.result(c, addr, js, id)
		if err != nil {
			finish()
			return nil, nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if b.trace {
			root := b.spans.add(0, 0, "jobs.job", js.name, t0, time.Now())
			b.spans.add(0, root, "jobs.submit", js.name, t0, t1)
			b.spans.add(0, root, "jobs.wait", js.name, t1, t2)
			b.spans.add(0, root, "jobs.result", js.name, t2, time.Now())
		}
		ids = append(ids, id)
		bodies = append(bodies, body)
	}
	finish()
	return secs, bodies, ids, nil
}

// submit posts one job and returns its id.
func (st *jobRunStats) submit(c *http.Client, addr string, js jobSpec) (string, error) {
	st.t.attempted.Add(1)
	resp, err := c.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(js.body))
	if err != nil {
		st.t.failed.Add(1)
		return "", err
	}
	var sub struct {
		ID string `json:"id"`
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		err = json.Unmarshal(raw, &sub)
	}
	if err != nil || resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		st.t.failed.Add(1)
		return "", fmt.Errorf("submit %s: status %d, err %v: %s", js.name, resp.StatusCode, err, raw)
	}
	return sub.ID, nil
}

// result fetches a finished job's result and checks its bytes against
// the pinned hash.
func (st *jobRunStats) result(c *http.Client, addr string, js jobSpec, id string) ([]byte, error) {
	st.t.attempted.Add(1)
	status, body, _, err := exchange(c, addr, &request{method: "GET", path: "/v1/jobs/" + id + "/result"}, "")
	if err != nil || status != http.StatusOK {
		st.t.failed.Add(1)
		return nil, fmt.Errorf("result of %s: status %d, err %v", js.name, status, err)
	}
	sum := sha256.Sum256(body)
	if got, want := hex.EncodeToString(sum[:]), pinnedResults[js.name]; got != want {
		st.t.failed.Add(1)
		st.t.mismatches.Add(1)
		fmt.Fprintf(os.Stderr, "fleetbench: %s result sha256 %s, pinned %q:\n%s", js.name, got, want, body)
	}
	return body, nil
}

// poll is the status poller's send function: one GET of the watched
// job's status, which must name the job.
func (st *jobRunStats) poll(b *bench, addr string, cur *atomic.Pointer[watch]) sendFunc {
	return func(c *http.Client, _ int, traced bool) bool {
		w := cur.Load()
		t0 := time.Now()
		state, ok := pollStatus(c, addr, w.id)
		st.t.attempted.Add(1)
		switch {
		case !ok:
			st.t.failed.Add(1)
		case state != "running":
			w.once.Do(func() { w.end <- state })
		}
		if traced {
			b.spans.add(0, 0, "jobs.poll", w.id, t0, time.Now())
		}
		return ok
	}
}

// pollStatus fetches one status snapshot and returns the job's state.
func pollStatus(c *http.Client, addr, id string) (string, bool) {
	resp, err := c.Get("http://" + addr + "/v1/jobs/" + id)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	return st.State, err == nil && resp.StatusCode == http.StatusOK && st.ID == id
}

// leaseToMerge returns, per shard of a distributed job, the time from its
// first lease_acquired event to its shard_merged event.
func leaseToMerge(c *http.Client, addr, id string) ([]float64, error) {
	status, body, _, err := exchange(c, addr, &request{method: "GET", path: "/v1/jobs/" + id + "/events"}, "")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("events of %s: status %d, err %v", id, status, err)
	}
	var evs struct {
		Events []mcjob.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		return nil, fmt.Errorf("events of %s: %w", id, err)
	}
	leased := map[int]time.Time{}
	var out []float64
	for _, ev := range evs.Events {
		switch ev.Type {
		case mcjob.EventLeaseAcquired:
			if _, ok := leased[ev.Shard]; !ok {
				leased[ev.Shard] = ev.Time
			}
		case mcjob.EventShardMerged:
			if t, ok := leased[ev.Shard]; ok {
				out = append(out, float64(ev.Time.Sub(t).Nanoseconds())/1e6)
			}
		}
	}
	return out, nil
}

func runJobs(ctx context.Context, b *bench) (outcome, error) {
	list := jobsList(b.seed)
	// Repetitions continue, at least three, until the next one would end
	// past the run's deadline and the status poller has enough samples
	// for a p99; each ends with a two-window closed loop fetching its
	// results.
	st := newJobRunStats()
	gauge := newHostGauge(nil)
	gauge.start()
	for rep := 0; ; rep++ {
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		t0 := time.Now()
		if err := st.rep(ctx, b, list, b.rate, 2*closedWindow, rep); err != nil {
			return outcome{}, err
		}
		st.slow = append(st.slow, gauge.lap())
		if rep >= 2 && len(st.pollLat) >= minLatencySamples && time.Now().Add(time.Since(t0)).After(b.deadline) {
			break
		}
	}
	sat := rateAtReference(st.windows, st.slow)
	out := outcome{
		attempted:  st.t.attempted.Load(),
		failed:     st.t.failed.Load(),
		mismatches: st.t.mismatches.Load(),
		metrics:    map[string]float64{},
	}
	lat := summarize(st.pollLat, 1000*b.seconds)
	p99, p99s, err := lowestP99(st.pollLat, 1000*b.seconds)
	if err != nil {
		return outcome{}, err
	}
	st.report("jobs")
	fmt.Fprintf(os.Stderr, "fleetbench: jobs: status polls at %.0f req/s: %d samples, p50 %.3f ms, p99 %.3f ms (lowest of %.3f), pooled p99 %.3f ms; result fetches %.0f/s at reference speed (median window; as measured %.0f)\n",
		b.rate, lat.n, lat.p50, p99, p99s, lat.p99, sat, st.windows)
	m := out.metrics
	if !b.trace {
		m["setup_s"] = timeAtReference(st.setupS, st.slow)
		m["lat_p50_ms"] = lat.p50
		m["lat_p99_ms"] = p99
		m["sat_rps"] = sat
		m["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
		m["peak_rss_mb"] = median(st.rssMB)
		m["job_local_s"] = timeAtReference(listTotals(st.localS), st.slow)
		m["job_dist_s"] = timeAtReference(listTotals(st.distS), st.slow)
		return out, nil
	}

	for _, k := range []string{"front.hop_ms_p50", "front.retries", "front.transport_errors", "serve.handler_ms_p50",
		"serve.net_ms_p50", "serve.rejected", "serve.resp_kb", "core.eval_ns",
		"memo.figures_hit_ratio", "memo.figures_lookups"} {
		m[k] = 0 // the jobs workload sends no model requests
	}
	poolMetrics(st.localDelta, m)
	accepted := st.coordDelta.sum("nanocostd_job_partials_total", "outcome", "accepted")
	all := st.coordDelta.sum("nanocostd_job_partials_total")
	m["mcjob.partials"] = all
	m["mcjob.useful_ratio"] = 0
	if all > 0 {
		m["mcjob.useful_ratio"] = accepted / all
	}
	m["mcjob.lease_to_merge_ms_p50"] = median(st.leaseToMergeMS)
	m["bench.lat_samples"] = float64(lat.n)
	m["bench.gen_late_ms_p99"] = quantileOf(st.genLate, 0.99)
	m["bench.trace_overhead_pct"] = traceOverheadPct(openResult{latMS: st.pollLat, traced: st.pollTraced})
	if err := probeMcjob(ctx, b, list, m); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// partialsUpload mirrors the body a worker posts per shard, so its
// encoded size is what crosses the wire.
type partialsUpload struct {
	Owner   string          `json:"owner"`
	Shard   int             `json:"shard"`
	Seconds float64         `json:"seconds,omitempty"`
	Chunks  []mcjob.Partial `json:"chunks"`
}

// mcjobProbe collects the timings of the benchmark's in-process worker.
type mcjobProbe struct {
	leaseMS, evalMS, submitMS, checkpointMS, uploadKB []float64
}

// probeMcjob makes the benchmark an in-process worker for each job of
// the list: it leases every shard from a checkpointing coordinator,
// evaluates it, encodes the upload, and submits it both there and to a
// coordinator without a checkpoint directory, timing each call.
func probeMcjob(ctx context.Context, b *bench, list []jobSpec, m map[string]float64) error {
	var p mcjobProbe
	for _, js := range list {
		if err := p.job(ctx, b, js); err != nil {
			return fmt.Errorf("%s probe: %w", js.name, err)
		}
	}
	m["mcjob.lease_ms"] = median(p.leaseMS)
	m["mcjob.eval_ms_per_shard"] = median(p.evalMS)
	m["mcjob.submit_ms"] = median(p.submitMS)
	m["mcjob.checkpoint_ms"] = median(p.checkpointMS)
	m["mcjob.upload_kb"] = mean(p.uploadKB)
	return nil
}

func (p *mcjobProbe) job(ctx context.Context, b *bench, js jobSpec) error {
	k, err := js.kernel()
	if err != nil {
		return err
	}
	cfg := mcjob.RunConfig{Trials: js.trials, Shards: js.shards, Seed: js.seed}
	plain, err := mcjob.NewCoordinator(k, cfg, mcjob.CoordinatorConfig{})
	if err != nil {
		return err
	}
	defer plain.Close()
	cfg.CheckpointDir = filepath.Join(b.runDir, "probe", js.kind)
	withCP, err := mcjob.NewCoordinator(k, cfg, mcjob.CoordinatorConfig{})
	if err != nil {
		return err
	}
	defer withCP.Close()
	root := b.spans.newID()
	rid := "probe/" + js.name
	t0 := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		l0 := time.Now()
		ls := withCP.Acquire("fleetbench", 1)
		l1 := time.Now()
		if len(ls) == 0 {
			break
		}
		s := ls[0].Shard
		parts, err := withCP.Evaluator().EvalShard(ctx, s)
		l2 := time.Now()
		if err != nil {
			return err
		}
		secs := l2.Sub(l1).Seconds()
		enc, err := json.Marshal(partialsUpload{Owner: "fleetbench", Shard: s, Seconds: secs, Chunks: parts})
		l3 := time.Now()
		if err != nil {
			return err
		}
		if _, err := withCP.Submit("fleetbench", s, parts, secs); err != nil {
			return err
		}
		l4 := time.Now()
		if _, err := plain.Submit("fleetbench", s, parts, secs); err != nil {
			return err
		}
		l5 := time.Now()
		for _, sp := range []struct {
			name string
			a, z time.Time
		}{{"mcjob.lease", l0, l1}, {"mcjob.eval", l1, l2}, {"mcjob.encode", l2, l3}, {"mcjob.submit", l3, l4}, {"mcjob.submit_nocp", l4, l5}} {
			b.spans.add(0, root, sp.name, rid, sp.a, sp.z)
		}
		p.leaseMS = append(p.leaseMS, ms(l1.Sub(l0)))
		p.evalMS = append(p.evalMS, ms(l2.Sub(l1)))
		p.submitMS = append(p.submitMS, ms(l4.Sub(l3)))
		p.checkpointMS = append(p.checkpointMS, ms(l4.Sub(l3))-ms(l5.Sub(l4)))
		p.uploadKB = append(p.uploadKB, float64(len(enc))/1024)
	}
	b.spans.add(root, 0, "mcjob.job", rid, t0, time.Now())
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// report writes the job list's times, at reference speed and as
// measured per repetition, with the host's scale over each repetition.
func (st *jobRunStats) report(workload string) {
	fmt.Fprintf(os.Stderr, "fleetbench: %s: %d repetitions of the job list, local %.3f s, distributed %.3f s at reference speed (median); as measured %.3f and %.3f s, host scale %.3f\n",
		workload, len(st.slow), timeAtReference(listTotals(st.localS), st.slow), timeAtReference(listTotals(st.distS), st.slow),
		listTotals(st.localS), listTotals(st.distS), st.slow)
}

// listTotals returns each repetition's whole-list time.
func listTotals(reps [][]float64) []float64 {
	out := make([]float64, len(reps))
	for r, rep := range reps {
		for _, s := range rep {
			out[r] += s
		}
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total / float64(len(v))
}
