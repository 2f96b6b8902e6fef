package mcjob

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/parallel"
)

// ErrBadSubmission tags Submit errors caused by the submission itself
// (out-of-range shard, wrong chunk geometry) as opposed to coordinator
// failures like a checkpoint write error; the serving layer maps the
// former to 400 and the latter to 500.
var ErrBadSubmission = errors.New("mcjob: bad shard submission")

// Lease is one shard's execution claim in a distributed run: the shard
// id, the worker that holds it, and the wall-clock expiry. A worker
// renews its leases while computing; a lease left to expire (the worker
// was kill -9'd, partitioned, or just slow) is reclaimed and the shard
// granted to the next asker. Duplicate execution is harmless — shard
// partials are deterministic and Submit is idempotent — so leases only
// need to be advisory, never exact.
type Lease struct {
	Shard   int    `json:"shard"`
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_ms"`
}

// defaultLeaseTTL is the lease lifetime when CoordinatorConfig does not
// choose: long enough that a renewing worker (renew period TTL/3) never
// loses a healthy lease, short enough that a dead worker's shards
// requeue promptly.
const defaultLeaseTTL = 10 * time.Second

// CoordinatorConfig parameterizes lease handling.
type CoordinatorConfig struct {
	// LeaseTTL is how long a granted or renewed lease lives (<= 0 uses
	// 10s).
	LeaseTTL time.Duration

	// now is the test seam for lease-expiry clocks; nil uses time.Now.
	now func() time.Time
}

// Coordinator owns one sharded run and is the package's only merger: it
// grants shard leases to workers (in-process or on peer replicas), folds
// submitted shard partials online in canonical chunk order, checkpoints
// accepted shards and keeps the run's progress and event timeline.
// Because every chunk's draws and the fold order are functions of
// (kernel spec, trials, seed) alone, the merged result is bit-identical
// (Float64bits) for every shard count and worker count, no matter how
// shards were spread across replicas, how often leases expired, or how
// many duplicate submissions raced.
//
// Leases live in memory only. The job log (the timeline on disk, with
// each accepted shard's partials fsynced on its checkpoint_flushed line)
// is the run's one durable state: after a restart every unmerged shard is
// leasable at once, which costs at most one TTL of duplicate compute that
// idempotent Submit absorbs.
type Coordinator struct {
	eval   *ShardEvaluator
	k      Kernel
	cfg    RunConfig
	ttl    time.Duration
	now    func() time.Time
	events *EventLog

	mu       sync.Mutex
	tally    Tally
	byShard  [][]Partial
	present  []bool
	cursor   int
	leases   map[int]Lease
	prog     Progress
	finished bool
	result   Result
	done     chan struct{}
}

// NewCoordinator validates the spec, opens (and replays) the checkpoint
// when cfg.CheckpointDir is set, appends the run's submitted event, and —
// if the checkpoint already covers every shard — finishes immediately.
func NewCoordinator(k Kernel, cfg RunConfig, opt CoordinatorConfig) (*Coordinator, error) {
	eval, err := NewShardEvaluator(k, cfg)
	if err != nil {
		return nil, err
	}
	p := eval.p
	cfg.Shards = p.shards
	c := &Coordinator{
		eval: eval, k: k, cfg: cfg,
		ttl:     opt.LeaseTTL,
		now:     opt.now,
		events:  newEventLog(),
		byShard: make([][]Partial, p.shards),
		present: make([]bool, p.shards),
		leases:  map[int]Lease{},
		done:    make(chan struct{}),
	}
	if c.ttl <= 0 {
		c.ttl = defaultLeaseTTL
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.prog = Progress{Shards: p.shards, Trials: cfg.Trials, LastShard: -1}

	if cfg.CheckpointDir != "" {
		restored, skipped, err := c.events.open(cfg.CheckpointDir, manifest{
			Version: checkpointVersion, Kind: k.Kind(),
			Trials: cfg.Trials, ChunkTrials: p.chunkTrials,
			Shards: p.shards, Seed: cfg.Seed, SpecHash: cfg.SpecHash,
		}, p)
		if err != nil {
			return nil, err
		}
		c.prog.CheckpointSkipped = skipped
		for s, parts := range restored {
			c.byShard[s] = parts
			c.present[s] = true
			c.prog.ShardsDone++
			c.prog.ShardsResumed++
			c.prog.TrialsDone += p.shardTrials(s)
		}
		c.prog.TrialsResumed = c.prog.TrialsDone
	}
	c.events.Append(EventSubmitted, -1, "", fmt.Sprintf("kind=%s trials=%d", k.Kind(), cfg.Trials))
	if c.prog.ShardsResumed > 0 {
		c.events.Append(EventCheckpointResume, -1, "",
			fmt.Sprintf("%d shards restored from checkpoint", c.prog.ShardsResumed))
		c.advanceLocked()
	}

	if cfg.OnProgress != nil && (c.prog.ShardsResumed > 0 || c.prog.CheckpointSkipped > 0) {
		cfg.OnProgress(c.prog)
	}
	if c.cursor == p.shards {
		c.finishLocked()
	}
	return c, nil
}

// Shards returns the resolved shard count of the plan.
func (c *Coordinator) Shards() int { return c.eval.p.shards }

// TTL returns the lease lifetime.
func (c *Coordinator) TTL() time.Duration { return c.ttl }

// Evaluator returns the run's shard evaluator, for workers that compute
// leased shards in-process.
func (c *Coordinator) Evaluator() *ShardEvaluator { return c.eval }

// Events returns the run's timeline. When the run checkpoints, it
// starts with every event replayed from the job log, and its seq
// continues across restarts.
func (c *Coordinator) Events() *EventLog { return c.events }

// advanceLocked folds newly contiguous shard partials in ascending
// chunk order. Callers hold c.mu (or, in NewCoordinator, exclusive
// access).
func (c *Coordinator) advanceLocked() {
	for c.cursor < c.eval.p.shards && c.present[c.cursor] {
		for _, pt := range c.byShard[c.cursor] {
			c.tally.fold(pt)
		}
		c.byShard[c.cursor] = nil
		c.events.Append(EventShardMerged, c.cursor, "", "")
		c.cursor++
	}
}

// finishLocked seals the run: the canonical fold has covered every
// chunk, so Finalize's output is the run's one true result.
func (c *Coordinator) finishLocked() {
	if c.finished {
		return
	}
	c.finished = true
	c.result = c.k.Finalize(c.tally, c.cfg)
	c.leases = map[int]Lease{}
	close(c.done)
}

// reclaimLocked drops expired leases; their shards become grantable
// again. Lazy: called on every Acquire/Leasable, never on a timer.
func (c *Coordinator) reclaimLocked() {
	nowMS := c.now().UnixMilli()
	for s, l := range c.leases {
		switch {
		case c.present[s]:
			// The shard arrived anyway (a duplicate beat the lease holder);
			// the lease is merely obsolete.
			delete(c.leases, s)
			c.events.Append(EventLeaseReclaimed, s, l.Owner, "shard already merged")
		case l.Expires <= nowMS:
			// The holder went silent past the TTL — kill -9, partition, or
			// stall. The shard becomes grantable again.
			delete(c.leases, s)
			c.events.Append(EventLeaseExpired, s, l.Owner, "")
			c.events.Append(EventLeaseReclaimed, s, l.Owner, "lease expired")
		}
	}
}

// Acquire grants up to max pending, unleased shards to owner (lowest
// shard id first) and returns the granted leases. Expired leases are
// reclaimed first, so a dead worker's shards are re-granted here. An
// empty return means everything is finished, merged, or leased to live
// owners — callers should poll again after a fraction of the TTL.
func (c *Coordinator) Acquire(owner string, max int) []Lease {
	if max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return nil
	}
	c.reclaimLocked()
	exp := c.now().Add(c.ttl).UnixMilli()
	var granted []Lease
	// Every shard below the merge cursor is merged, so the scan starts
	// there and passes only leased or not-yet-folded shards, not every
	// shard of a long run.
	for s := c.cursor; s < c.eval.p.shards && len(granted) < max; s++ {
		if c.present[s] {
			continue
		}
		if _, held := c.leases[s]; held {
			continue
		}
		l := Lease{Shard: s, Owner: owner, Expires: exp}
		c.leases[s] = l
		c.events.Append(EventLeaseAcquired, s, owner, "")
		granted = append(granted, l)
	}
	return granted
}

// Renew extends every live lease owner holds to a full TTL from now and
// returns how many it extended. A worker renews at TTL/3 so a healthy
// lease never lapses.
func (c *Coordinator) Renew(owner string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return 0
	}
	exp := c.now().Add(c.ttl).UnixMilli()
	n := 0
	for s, l := range c.leases {
		if l.Owner == owner {
			l.Expires = exp
			c.leases[s] = l
			n++
		}
	}
	if n > 0 {
		c.events.Append(EventLeaseRenewed, -1, owner, fmt.Sprintf("%d leases", n))
	}
	return n
}

// Submit folds one completed shard's per-chunk partials into the run on
// behalf of owner (the submitting worker's id, recorded in the event
// timeline). It is idempotent: a duplicate of an already-merged shard (a
// zombie whose lease expired, a retried upload) returns (false, nil) and
// changes nothing. The partials are validated against the plan's
// geometry first — a submission from a mis-built evaluator is an error,
// never silently folded. seconds is the reported wall-clock evaluation
// time, forwarded to OnProgress.
func (c *Coordinator) Submit(owner string, shard int, parts []Partial, seconds float64) (accepted bool, err error) {
	p := c.eval.p
	if err := p.checkShard(shard, parts); err != nil {
		c.events.Append(EventPartialRejected, shard, owner, err.Error())
		return false, fmt.Errorf("%w: %v", ErrBadSubmission, err)
	}

	c.mu.Lock()
	if c.finished || c.present[shard] {
		c.mu.Unlock()
		c.events.Append(EventPartialDuplicate, shard, owner, "")
		return false, nil
	}
	c.mu.Unlock()

	// Checkpoint before acknowledging, outside the merge lock: the shard's
	// flush line is appended under the log's lock alone and fsynced with
	// no lock held (lock order: c.mu, then the log's; see EventLog). Two
	// racing duplicates may both append — identical partials, and replay
	// keeps the last, so the log stays consistent.
	if err := c.events.flushShard(shard, owner, parts); err != nil {
		return false, err
	}

	c.mu.Lock()
	if c.finished || c.present[shard] {
		c.mu.Unlock()
		c.events.Append(EventPartialDuplicate, shard, owner, "")
		return false, nil
	}
	c.events.Append(EventPartialAccepted, shard, owner, fmt.Sprintf("%.3fs", seconds))
	c.byShard[shard] = parts
	c.present[shard] = true
	delete(c.leases, shard)
	c.advanceLocked()
	c.prog.ShardsDone++
	c.prog.TrialsDone += p.shardTrials(shard)
	c.prog.LastShard = shard
	c.prog.LastShardSeconds = seconds
	snapshot := c.prog
	if c.cursor == p.shards {
		c.finishLocked()
	}
	c.mu.Unlock()

	if c.cfg.OnProgress != nil {
		c.cfg.OnProgress(snapshot)
	}
	return true, nil
}

// Pending returns how many shards have not been merged yet.
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ok := range c.present {
		if !ok {
			n++
		}
	}
	return n
}

// Leasable returns how many shards a new Acquire could be granted right
// now: pending shards minus live leases, after reclaiming expired ones.
func (c *Coordinator) Leasable() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return 0
	}
	c.reclaimLocked()
	n := 0
	for s, ok := range c.present {
		if ok {
			continue
		}
		if _, held := c.leases[s]; !held {
			n++
		}
	}
	return n
}

// Done is closed once every shard has been merged and the result is
// available.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Result returns the merged result and whether the run has finished.
func (c *Coordinator) Result() (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result, c.finished
}

// Progress returns the current progress snapshot.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prog
}

// Close releases the job log, if the run checkpoints; call once the run
// is finished or abandoned. The timeline stays readable.
func (c *Coordinator) Close() { c.events.close() }

// RunLocal drives the coordinator with in-process workers until the run
// finishes (returns nil), ctx is cancelled (returns ctx.Err()), or a
// shard evaluation fails (returns the first error). It participates in
// the same lease protocol as remote workers — acquire one shard at a
// time, compute, submit — so local and remote compute interleave freely,
// and a remote worker's expired leases are picked up here. One renewer
// heartbeats at TTL/3 for the whole call: Renew(owner) extends every
// lease owner holds, so the workers' leases never lapse while they
// compute.
func (c *Coordinator) RunLocal(ctx context.Context, owner string, workers int) error {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers > c.eval.p.shards {
		workers = c.eval.p.shards
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	poll := c.ttl / 8
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	// Workers return only once the run is done or ctx is cancelled (fail
	// cancels it), so the renewer's exit conditions cover theirs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(c.ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				c.Renew(owner)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-c.done:
					return
				case <-ctx.Done():
					return
				default:
				}
				ls := c.Acquire(owner, 1)
				if len(ls) == 0 {
					// Everything is merged or leased elsewhere; wait for the
					// run to finish or a lease to expire.
					select {
					case <-c.done:
						return
					case <-ctx.Done():
						return
					case <-time.After(poll):
					}
					continue
				}
				s := ls[0].Shard
				start := time.Now()
				parts, err := c.eval.EvalShard(ctx, s)
				if err != nil {
					if ctx.Err() == nil {
						fail(err)
					}
					return
				}
				if _, err := c.Submit(owner, s, parts, time.Since(start).Seconds()); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	select {
	case <-c.done:
		return nil
	default:
		return ctx.Err()
	}
}
