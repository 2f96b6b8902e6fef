package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mcjob"
	"repro/internal/obs"
	"repro/internal/yield"
)

// maxTrackedJobs bounds the in-memory job table. Terminal jobs beyond
// the cap are evicted oldest-first; running jobs are never evicted.
const maxTrackedJobs = 64

// maxJobTrials bounds one job's trial count (10¹¹ ≈ a day of sharded
// compute); anything larger is a typo, not a plan.
const maxJobTrials int64 = 100_000_000_000

// maxWaferMapTrials bounds wafer-map lots: each trial simulates a whole
// wafer, and the per-wafer cluster scales are precomputed per lot.
const maxWaferMapTrials int64 = 10_000_000

// distJSON is the wire form of a core.Dist for job specs: exactly one
// of the three shapes, selected by kind.
type distJSON struct {
	Kind   string  `json:"kind"` // "fixed" | "uniform" | "lognormal"
	Value  float64 `json:"value,omitempty"`
	Lo     float64 `json:"lo,omitempty"`
	Hi     float64 `json:"hi,omitempty"`
	Median float64 `json:"median,omitempty"`
	Sigma  float64 `json:"sigma,omitempty"`
}

func (d *distJSON) toDist() (core.Dist, error) {
	if d == nil {
		return core.Dist{}, nil // unset: the scenario's point value
	}
	var dist core.Dist
	switch d.Kind {
	case "fixed":
		dist = core.Fixed(d.Value)
	case "uniform":
		dist = core.Uniform(d.Lo, d.Hi)
	case "lognormal":
		dist = core.LogNormal(d.Median, d.Sigma)
	default:
		return core.Dist{}, fmt.Errorf("unknown distribution kind %q (want fixed, uniform or lognormal)", d.Kind)
	}
	if err := dist.Validate(); err != nil {
		return core.Dist{}, err
	}
	return dist, nil
}

// mcJobSpecJSON is the montecarlo job kind's spec: the shared scenario
// shape plus optional input distributions.
type mcJobSpecJSON struct {
	Scenario scenarioJSON `json:"scenario"`
	Yield    *distJSON    `json:"yield,omitempty"`
	CmSq     *distJSON    `json:"cm_sq,omitempty"`
	Sd       *distJSON    `json:"sd,omitempty"`
	Wafers   *distJSON    `json:"wafers,omitempty"`
	MaskCost *distJSON    `json:"mask_cost,omitempty"`
}

// waferMapJobJSON is the wafermap job kind's spec; the lot size is the
// job's trial count.
type waferMapJobJSON struct {
	UsableRadiusMM float64 `json:"usable_radius_mm"`
	DieWMM         float64 `json:"die_w_mm"`
	DieHMM         float64 `json:"die_h_mm"`
	Lambda         float64 `json:"lambda"`
	EdgeFactor     float64 `json:"edge_factor,omitempty"`
	ClusterAlpha   float64 `json:"cluster_alpha,omitempty"`
}

// jobRequest is the POST /v1/jobs body: common run parameters plus
// exactly one kind-specific spec matching Kind.
type jobRequest struct {
	Kind         string                  `json:"kind"`
	Trials       int64                   `json:"trials"`
	Shards       int                     `json:"shards,omitempty"`
	Seed         uint64                  `json:"seed,omitempty"`
	Checkpoint   bool                    `json:"checkpoint,omitempty"`
	Defect       *mcjob.DefectSpec       `json:"defect,omitempty"`
	LayoutDefect *mcjob.LayoutDefectSpec `json:"layout_defect,omitempty"`
	MonteCarlo   *mcJobSpecJSON          `json:"montecarlo,omitempty"`
	WaferMap     *waferMapJobJSON        `json:"wafermap,omitempty"`
}

// buildKernel validates req and constructs its kernel. Every failure is
// a 400.
func buildKernel(req jobRequest) (mcjob.Kernel, error) {
	specs := 0
	for _, set := range []bool{req.Defect != nil, req.LayoutDefect != nil, req.MonteCarlo != nil, req.WaferMap != nil} {
		if set {
			specs++
		}
	}
	if specs != 1 {
		return nil, badRequest(fmt.Errorf("job must carry exactly one kind spec, got %d", specs))
	}
	if req.Trials <= 0 || req.Trials > maxJobTrials {
		return nil, badRequest(fmt.Errorf("trials must be in [1, %d], got %d", maxJobTrials, req.Trials))
	}
	if req.Shards < 0 || req.Shards > 1<<20 {
		return nil, badRequest(fmt.Errorf("shards must be in [0, %d], got %d", 1<<20, req.Shards))
	}
	var (
		k   mcjob.Kernel
		err error
	)
	switch {
	case req.Kind == "defect" && req.Defect != nil:
		k, err = mcjob.NewDefectKernel(*req.Defect)
	case req.Kind == "layoutdefect" && req.LayoutDefect != nil:
		k, err = mcjob.NewLayoutDefectKernel(*req.LayoutDefect)
	case req.Kind == "montecarlo" && req.MonteCarlo != nil:
		k, err = buildCostKernel(*req.MonteCarlo)
	case req.Kind == "wafermap" && req.WaferMap != nil:
		if req.Trials > maxWaferMapTrials {
			return nil, badRequest(fmt.Errorf("wafermap trials (wafers) must be at most %d, got %d", maxWaferMapTrials, req.Trials))
		}
		w := *req.WaferMap
		k, err = mcjob.NewWaferMapKernel(yield.WaferMapConfig{
			UsableRadiusMM: w.UsableRadiusMM, DieWMM: w.DieWMM, DieHMM: w.DieHMM,
			Lambda: w.Lambda, EdgeFactor: w.EdgeFactor, ClusterAlpha: w.ClusterAlpha,
			Wafers: int(req.Trials), Seed: req.Seed,
		})
	default:
		return nil, badRequest(fmt.Errorf("kind %q does not match the supplied spec (want defect, layoutdefect, montecarlo or wafermap)", req.Kind))
	}
	if err != nil {
		return nil, badRequest(err)
	}
	return k, nil
}

func buildCostKernel(spec mcJobSpecJSON) (mcjob.Kernel, error) {
	base, err := spec.Scenario.toScenario()
	if err != nil {
		return nil, err
	}
	u := core.UncertainScenario{Base: base}
	for _, bind := range []struct {
		src *distJSON
		dst *core.Dist
	}{
		{spec.Yield, &u.Yield}, {spec.CmSq, &u.CmSq}, {spec.Sd, &u.Sd},
		{spec.Wafers, &u.Wafers}, {spec.MaskCost, &u.MaskCost},
	} {
		d, err := bind.src.toDist()
		if err != nil {
			return nil, badRequest(err)
		}
		*bind.dst = d
	}
	return mcjob.NewCostKernel(u)
}

// canonicalJobSpec is the identity-bearing form of a job request:
// every field that determines the run, with defaults resolved and no
// omitempty on the run parameters, marshaled in fixed struct-field
// order. Hashing the raw jobRequest instead used to give semantically
// identical submits different IDs — `"shards":64` versus an omitted
// shard count that resolves to 64, or an explicit `"seed":0` versus no
// seed — so equivalent resubmits missed the dedupe table and, worse, a
// restarted daemon failed to find the checkpoint directory the
// equivalent first submit had been writing.
type canonicalJobSpec struct {
	Kind       string `json:"kind"`
	Trials     int64  `json:"trials"`
	Shards     int    `json:"shards"` // resolved: default applied, clamped to the chunk count
	Seed       uint64 `json:"seed"`
	Checkpoint bool   `json:"checkpoint"`

	Defect       *mcjob.DefectSpec       `json:"defect,omitempty"`
	LayoutDefect *mcjob.LayoutDefectSpec `json:"layout_defect,omitempty"`
	MonteCarlo   *mcJobSpecJSON          `json:"montecarlo,omitempty"`
	WaferMap     *waferMapJobJSON        `json:"wafermap,omitempty"`
}

// jobID derives the job's identity from the canonical spec — defaults
// applied (the shard count is normalized through the same plan logic
// Run uses, which needs the kernel's unit-chunk size), stable field
// order — so the same effective job always maps to the same ID. That is
// what makes submits idempotent and lets a restarted daemon resume a
// checkpointed job when the client re-submits any equivalent spelling
// of the spec. Returns (short id, full spec hash).
func jobID(req jobRequest, k mcjob.Kernel) (string, string) {
	spec := canonicalJobSpec{
		Kind:       req.Kind,
		Trials:     req.Trials,
		Shards:     mcjob.NormalizedShards(k.ChunkTrials(), req.Trials, req.Shards),
		Seed:       req.Seed,
		Checkpoint: req.Checkpoint,

		Defect:       req.Defect,
		LayoutDefect: req.LayoutDefect,
		MonteCarlo:   req.MonteCarlo,
		WaferMap:     req.WaferMap,
	}
	canonical, err := json.Marshal(spec)
	if err != nil {
		// Unreachable: the spec is plain data. Fall back to an empty
		// hash rather than panicking in a handler.
		canonical = nil
	}
	sum := sha256.Sum256(canonical)
	full := hex.EncodeToString(sum[:])
	return full[:16], full
}

// job is one tracked simulation job.
type job struct {
	id         string
	kind       string
	trials     int64
	checkpoint bool
	started    time.Time
	done       chan struct{}
	cancel     context.CancelFunc
	// coord runs the job: this replica's workers lease, evaluate and
	// submit its shards. It holds the job's progress and its timeline,
	// served at /v1/jobs/{id}/events. A distributed job also takes remote
	// lease and partials calls and is listed at /v1/jobs/open, with
	// specJSON — the submitted jobRequest — so workers can rebuild the
	// kernel and evaluator from the spec alone.
	coord       *mcjob.Coordinator
	distributed bool
	specJSON    json.RawMessage

	mu          sync.Mutex
	state       string // "running" | "done" | "failed" | "cancelled"
	finished    time.Time
	resultBytes []byte
	errMsg      string
}

// resultEnvelope is the GET /v1/jobs/{id}/result body. It contains no
// timing, so for a fixed spec the bytes are identical across runs,
// restarts and resumes.
type resultEnvelope struct {
	ID     string       `json:"id"`
	Kind   string       `json:"kind"`
	Result mcjob.Result `json:"result"`
}

// jobStatusJSON is the GET /v1/jobs/{id} body and the NDJSON progress
// stream's line shape.
type jobStatusJSON struct {
	ID            string  `json:"id"`
	Kind          string  `json:"kind"`
	State         string  `json:"state"`
	Trials        int64   `json:"trials"`
	TrialsDone    int64   `json:"trials_done"`
	Shards        int     `json:"shards"`
	ShardsDone    int     `json:"shards_done"`
	ShardsResumed int     `json:"shards_resumed,omitempty"`
	Checkpoint    bool    `json:"checkpoint,omitempty"`
	Distributed   bool    `json:"distributed,omitempty"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	TrialsPerSec  float64 `json:"trials_per_sec,omitempty"`
	EtaSec        float64 `json:"eta_sec,omitempty"`
	Error         string  `json:"error,omitempty"`
	ResultURL     string  `json:"result_url,omitempty"`
}

// status renders a point-in-time snapshot. Rates count only trials
// evaluated by this process — resumed shards were paid for by a
// previous run and would otherwise inflate trials/sec and collapse the
// ETA.
func (j *job) status() jobStatusJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Progress is read while j.mu holds the state still. The coordinator
	// finishes before the state becomes done, so a done job always
	// reports its final progress.
	prog := j.coord.Progress()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	elapsed := end.Sub(j.started).Seconds()
	st := jobStatusJSON{
		ID: j.id, Kind: j.kind, State: j.state,
		Trials: j.trials, TrialsDone: prog.TrialsDone,
		Shards: prog.Shards, ShardsDone: prog.ShardsDone,
		ShardsResumed: prog.ShardsResumed,
		Checkpoint:    j.checkpoint,
		Distributed:   j.distributed,
		ElapsedSec:    elapsed,
		Error:         j.errMsg,
	}
	if live := prog.TrialsDone - prog.TrialsResumed; live > 0 && elapsed > 0 {
		st.TrialsPerSec = float64(live) / elapsed
		if j.state == "running" {
			st.EtaSec = float64(j.trials-prog.TrialsDone) / st.TrialsPerSec
		}
	}
	if j.state == "done" {
		st.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	return st
}

// terminal reports whether the job has finished (in any way).
func (j *job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// jobManager owns the job table and the background runners. It is
// created with the server and drained after the HTTP listener.
type jobManager struct {
	log        *slog.Logger
	metrics    *metrics
	tracer     *obs.Tracer // optional; set by the server after construction
	dir        string
	maxRunning int
	// distribute opens every job's Coordinator to peer replicas, which
	// then pull its shards; owner names this replica's local worker in the
	// lease table, leaseTTL is the shard-lease lifetime and localWorkers
	// sizes the in-process worker loop (-1 disables local evaluation
	// entirely — a pure coordinator, which needs distribute).
	distribute   bool
	owner        string
	leaseTTL     time.Duration
	localWorkers int

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	stopOnce  sync.Once

	startMu sync.Mutex // serializes job starts; taken before mu
	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // insertion order, for eviction
	running int
}

func newJobManager(cfg Config, m *metrics, log *slog.Logger) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{
		log: log, metrics: m, dir: cfg.JobDir, maxRunning: cfg.MaxJobs,
		distribute:   cfg.DistributeJobs,
		owner:        cfg.WorkerID,
		leaseTTL:     cfg.LeaseTTL,
		localWorkers: cfg.JobWorkers,
		baseCtx:      ctx, cancelAll: cancel,
		jobs: map[string]*job{},
	}
}

// startOrAttach returns the job for req, creating and starting it if it
// is not already tracked. The bool reports whether a new job was
// created.
func (m *jobManager) startOrAttach(req jobRequest) (*job, bool, error) {
	if req.Checkpoint && m.dir == "" {
		return nil, false, badRequest(fmt.Errorf("checkpointing requires the daemon to run with -job-dir"))
	}
	k, err := buildKernel(req)
	if err != nil {
		return nil, false, err
	}
	id, specHash := jobID(req, k)

	// The coordinator is built under startMu, not mu: a big job's RNG
	// stream walk (about 1 µs per chunk, 0.5 s at 4×10⁹ trials) and its
	// checkpoint open would otherwise stall every status, result and
	// lease call. Only a start can raise m.running, so the saturation
	// check stays true until the job is registered.
	m.startMu.Lock()
	defer m.startMu.Unlock()
	m.mu.Lock()
	existing, running := m.jobs[id], m.running
	m.mu.Unlock()
	if existing != nil {
		return existing, false, nil
	}
	if running >= m.maxRunning {
		return nil, false, &apiError{status: http.StatusTooManyRequests, code: "jobs_saturated",
			err: fmt.Errorf("server at its %d-job concurrency limit", m.maxRunning)}
	}

	runCtx, cancel := context.WithCancel(m.baseCtx)
	j := &job{
		id: id, kind: k.Kind(), trials: req.Trials,
		checkpoint: req.Checkpoint,
		done:       make(chan struct{}),
		cancel:     cancel,
		state:      "running",
		started:    time.Now(),
	}
	cfg := mcjob.RunConfig{
		Trials: req.Trials, Shards: req.Shards, Seed: req.Seed,
		SpecHash: specHash,
		OnProgress: func(p mcjob.Progress) {
			if p.LastShard >= 0 {
				m.metrics.jobShardSeconds.Observe(p.LastShardSeconds)
			}
			elapsed := time.Since(j.started).Seconds()
			if live := p.TrialsDone - p.TrialsResumed; live > 0 && elapsed > 0 {
				m.metrics.jobTrialsPerSec.Set(float64(live) / elapsed)
			}
		},
	}
	if req.Checkpoint {
		cfg.CheckpointDir = filepath.Join(m.dir, id)
	}

	coord, err := mcjob.NewCoordinator(k, cfg, mcjob.CoordinatorConfig{LeaseTTL: m.leaseTTL})
	if err != nil {
		cancel()
		if errors.Is(err, mcjob.ErrCheckpointMismatch) {
			return nil, false, &apiError{status: http.StatusConflict, code: "checkpoint_mismatch", err: err}
		}
		return nil, false, err
	}
	j.coord = coord
	if m.distribute {
		j.distributed = true
		if spec, err := json.Marshal(req); err == nil {
			j.specJSON = spec
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.baseCtx.Err(); err != nil {
		cancel()
		coord.Close()
		return nil, false, fmt.Errorf("job manager shutting down")
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	m.running++
	m.metrics.jobsTotal.With("submitted").Inc()
	m.wg.Add(1)
	go m.run(runCtx, j)
	return j, true, nil
}

// traceJob opens the job's root span in the replica's tracer under the
// deterministic "job-<id>" trace, so background job work is retrievable
// at /debug/trace/job-<id> (and federates with worker-side spans
// recorded under the same trace id). Returns ctx unchanged when tracing
// is unavailable.
func (m *jobManager) traceJob(ctx context.Context, j *job) (context.Context, *obs.Span) {
	tid := obs.SanitizeID("job-" + j.id)
	if m.tracer == nil || tid == "" {
		return ctx, nil
	}
	ctx, sp := m.tracer.StartRoot(ctx, tid, "job.run")
	sp.SetAttr("job", j.id)
	sp.SetAttr("kind", j.kind)
	return ctx, sp
}

// run drives the job's coordinator to a terminal state. This replica's
// local workers take part through the same lease protocol remote
// replicas use over HTTP, so the job finishes when the canonical fold
// covers every shard no matter who computed what. A local evaluation
// error fails the job (shard errors are deterministic — every replica
// would hit the same one).
func (m *jobManager) run(ctx context.Context, j *job) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.coord.Close()
	ctx, span := m.traceJob(ctx, j)
	defer span.End()
	var (
		res    mcjob.Result
		runErr error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("job panicked: %v", r)
			}
		}()
		if m.localWorkers < 0 {
			// Pure coordinator: merge remote uploads only.
			select {
			case <-j.coord.Done():
			case <-ctx.Done():
				runErr = ctx.Err()
			}
		} else {
			runErr = j.coord.RunLocal(ctx, m.owner, m.localWorkers)
		}
		if runErr == nil {
			var ok bool
			res, ok = j.coord.Result()
			if !ok {
				runErr = fmt.Errorf("coordinator stopped before the fold completed")
			}
		}
	}()
	m.finishJob(j, res, runErr)
}

// finishJob records a run's terminal state, result bytes and metrics.
func (m *jobManager) finishJob(j *job, res mcjob.Result, runErr error) {
	j.mu.Lock()
	j.finished = time.Now()
	state := "done"
	switch {
	case runErr == nil:
		body, err := json.Marshal(resultEnvelope{ID: j.id, Kind: j.kind, Result: res})
		if err != nil {
			state, j.errMsg = "failed", fmt.Sprintf("encode result: %v", err)
		} else {
			j.resultBytes = append(body, '\n')
		}
	case errors.Is(runErr, context.Canceled):
		state, j.errMsg = "cancelled", "job cancelled"
	default:
		state, j.errMsg = "failed", runErr.Error()
	}
	j.state = state
	errMsg := j.errMsg
	elapsed := j.finished.Sub(j.started)
	j.mu.Unlock()

	switch state {
	case "done":
		j.coord.Events().Append(mcjob.EventCompleted, -1, "", "")
	case "cancelled":
		j.coord.Events().Append(mcjob.EventCancelled, -1, "", "")
	default:
		j.coord.Events().Append(mcjob.EventFailed, -1, "", errMsg)
	}

	m.mu.Lock()
	m.running--
	m.mu.Unlock()
	switch state {
	case "done":
		m.metrics.jobsTotal.With("completed").Inc()
	case "cancelled":
		m.metrics.jobsTotal.With("cancelled").Inc()
	default:
		m.metrics.jobsTotal.With("failed").Inc()
	}
	m.log.Info("job finished", "job_id", j.id, "kind", j.kind, "state", state,
		"trials", j.trials, "elapsed", elapsed)
}

// get returns the tracked job, or nil.
func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// evictLocked drops the oldest terminal jobs beyond maxTrackedJobs.
// Callers hold m.mu.
func (m *jobManager) evictLocked() {
	if len(m.order) <= maxTrackedJobs {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - maxTrackedJobs
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && j != nil && j.terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// shutdown cancels every running job and waits (bounded) for the
// runners to exit. Idempotent.
func (m *jobManager) shutdown(timeout time.Duration) {
	m.stopOnce.Do(func() {
		m.cancelAll()
		done := make(chan struct{})
		go func() { m.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(timeout):
			m.log.Warn("job manager shutdown timed out with jobs still running")
		}
	})
}

// ---------------------------------------------------------------------------
// HTTP handlers

// handleJobSubmit accepts a job spec, starts (or attaches to) the job,
// and answers 202 for a newly created job, 200 for an already-tracked
// one — both with the job's current status snapshot.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) (any, error) {
	req, err := decodeJSON[jobRequest](r)
	if err != nil {
		return nil, err
	}
	j, created, err := s.jobs.startOrAttach(req)
	if err != nil {
		return nil, err
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, j.status())
	return wroteResponse{}, nil
}

// handleJobStatus answers one status snapshot, or — with
// "Accept: application/x-ndjson" — streams one snapshot now and one per
// change of the job's timeline (changes that land together share a
// line) until the job reaches a terminal state, the request deadline
// passes, or the client leaves.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) (any, error) {
	j := s.jobs.get(trimmedPathValue(r, "id"))
	if j == nil {
		return nil, jobNotFound(r)
	}
	if !wantsNDJSON(r) {
		return j.status(), nil
	}
	followJob(w, r, j, func(enc *json.Encoder) error { return enc.Encode(j.status()) })
	return wroteResponse{}, nil
}

// followJob is the one follow loop behind both NDJSON job streams. It
// calls write once up front, again each time the job's timeline
// changes, and a last time once the job has ended, then returns; it
// also returns when the request's deadline passes, the client leaves or
// a write fails.
func followJob(w http.ResponseWriter, r *http.Request, j *job, write func(*json.Encoder) error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for {
		// Take the change channel and the terminal check before writing,
		// so an append or the job's end during the write wakes the next
		// round instead of being missed.
		changed := j.coord.Events().Changed()
		ended := j.terminal()
		if write(enc) != nil {
			return
		}
		flush(w)
		if ended {
			return
		}
		select {
		case <-changed:
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobResult serves the stored result bytes verbatim: for a fixed
// spec the body is byte-identical across runs and resumes.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) (any, error) {
	j := s.jobs.get(trimmedPathValue(r, "id"))
	if j == nil {
		return nil, jobNotFound(r)
	}
	j.mu.Lock()
	state, body := j.state, j.resultBytes
	errMsg := j.errMsg
	j.mu.Unlock()
	switch state {
	case "done":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return wroteResponse{}, nil
	case "running":
		return nil, &apiError{status: http.StatusConflict, code: "result_not_ready",
			err: fmt.Errorf("job %s is still running", j.id)}
	default:
		return nil, &apiError{status: http.StatusConflict, code: "job_" + state,
			err: fmt.Errorf("job %s %s: %s", j.id, state, errMsg)}
	}
}

// handleJobCancel requests cancellation and answers the status after
// the job settles (bounded wait; a slow shard may still be unwinding).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) (any, error) {
	j := s.jobs.get(trimmedPathValue(r, "id"))
	if j == nil {
		return nil, jobNotFound(r)
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	cancel()
	select {
	case <-j.done:
	case <-time.After(2 * time.Second):
	case <-r.Context().Done():
	}
	return j.status(), nil
}

// jobEventsJSON is the GET /v1/jobs/{id}/events body: the retained
// lifecycle timeline, oldest first.
type jobEventsJSON struct {
	ID            string        `json:"id"`
	State         string        `json:"state"`
	DroppedEvents int64         `json:"dropped_events,omitempty"`
	Events        []mcjob.Event `json:"events"`
}

// handleJobEvents serves a job's lifecycle timeline: a JSON snapshot, or
// — with "Accept: application/x-ndjson" — a live stream that replays the
// retained ring and then follows new events until the job reaches a
// terminal state (the stream's last line is the terminal event), the
// request deadline passes, or the client leaves. A resumed job's
// timeline starts with the events its job log kept from earlier runs.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) (any, error) {
	j := s.jobs.get(trimmedPathValue(r, "id"))
	if j == nil {
		return nil, jobNotFound(r)
	}
	if !wantsNDJSON(r) {
		evs, dropped := j.coord.Events().Snapshot(0)
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		return jobEventsJSON{ID: j.id, State: state, DroppedEvents: dropped, Events: evs}, nil
	}
	var last int64
	followJob(w, r, j, func(enc *json.Encoder) error {
		evs, _ := j.coord.Events().Snapshot(last)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			last = ev.Seq
		}
		return nil
	})
	return wroteResponse{}, nil
}

func jobNotFound(r *http.Request) *apiError {
	return &apiError{status: http.StatusNotFound, code: "job_not_found",
		err: fmt.Errorf("no tracked job %q", trimmedPathValue(r, "id"))}
}
