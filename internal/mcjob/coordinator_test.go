package mcjob

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// testClock is a manual lease clock: tests advance it to expire leases
// without sleeping.
type testClock struct {
	base   time.Time
	offset atomic.Int64
}

func newTestClock() *testClock {
	return &testClock{base: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) now() time.Time {
	return c.base.Add(time.Duration(c.offset.Load()))
}

func (c *testClock) advance(d time.Duration) { c.offset.Add(int64(d)) }

func defectCoordinator(t *testing.T, cfg RunConfig, opt CoordinatorConfig) (*Coordinator, Kernel) {
	t.Helper()
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.7})
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	c, err := NewCoordinator(k, cfg, opt)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c, k
}

// TestCoordinatorMatchesRunBitIdentical distributes the shards across
// two "workers" that each rebuild the evaluator from the spec (exactly
// what a remote replica does) and interleave their submissions; the
// merged result must be byte-identical to a plain single-host Run.
func TestCoordinatorMatchesRunBitIdentical(t *testing.T) {
	cfg := RunConfig{Trials: 5*defectChunkTrials + 257, Shards: 4, Seed: 99}
	kRef, err := NewDefectKernel(DefectSpec{Lambda: 0.7})
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	want, err := Run(context.Background(), kRef, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	c, _ := defectCoordinator(t, cfg, CoordinatorConfig{LeaseTTL: time.Minute})
	// The "remote" worker builds its own kernel and evaluator from the
	// same spec, as a peer replica would.
	kRemote, err := NewDefectKernel(DefectSpec{Lambda: 0.7})
	if err != nil {
		t.Fatalf("remote kernel: %v", err)
	}
	remote, err := NewShardEvaluator(kRemote, cfg)
	if err != nil {
		t.Fatalf("remote evaluator: %v", err)
	}
	owners := []string{"worker-a", "worker-b"}
	for i := 0; ; i++ {
		ls := c.Acquire(owners[i%2], 1)
		if len(ls) == 0 {
			break
		}
		s := ls[0].Shard
		// Worker B's shards round-trip through JSON like an HTTP upload.
		parts, err := remote.EvalShard(context.Background(), s)
		if err != nil {
			t.Fatalf("eval shard %d: %v", s, err)
		}
		if i%2 == 1 {
			wire, err := json.Marshal(parts)
			if err != nil {
				t.Fatalf("encode shard %d: %v", s, err)
			}
			parts = nil
			if err := json.Unmarshal(wire, &parts); err != nil {
				t.Fatalf("decode shard %d: %v", s, err)
			}
		}
		accepted, err := c.Submit("tester", s, parts, 0.1)
		if err != nil || !accepted {
			t.Fatalf("submit shard %d: accepted=%v err=%v", s, accepted, err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatalf("coordinator not done after all shards submitted")
	}
	got, ok := c.Result()
	if !ok {
		t.Fatalf("no result")
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Fatalf("distributed result differs from Run:\n got %s\nwant %s", resultJSON(t, got), resultJSON(t, want))
	}
}

// TestLeaseExpiryReclaimExactlyOnce is the kill -9 story in miniature:
// worker A leases a shard and dies; after the TTL the shard is
// re-granted to worker B, whose submission is accepted; A's zombie
// duplicate is refused without disturbing the fold. The shard's
// partials enter the tally exactly once and the result still matches a
// single-host Run.
func TestLeaseExpiryReclaimExactlyOnce(t *testing.T) {
	clk := newTestClock()
	cfg := RunConfig{Trials: 3*defectChunkTrials + 11, Shards: 3, Seed: 7}
	c, k := defectCoordinator(t, cfg, CoordinatorConfig{LeaseTTL: time.Second, now: clk.now})

	la := c.Acquire("worker-a", 1)
	if len(la) != 1 || la[0].Owner != "worker-a" {
		t.Fatalf("acquire for a: %+v", la)
	}
	s := la[0].Shard

	// Still leased: nobody else can take it, and renewal extends it.
	if lb := c.Acquire("worker-b", c.Shards()); len(lb) != c.Shards()-1 {
		t.Fatalf("live lease not excluded: b got %d shards, want %d", len(lb), c.Shards()-1)
	}
	clk.advance(900 * time.Millisecond)
	if n := c.Renew("worker-a"); n != 1 {
		t.Fatalf("renew extended %d leases, want 1", n)
	}
	c.Renew("worker-b")
	clk.advance(900 * time.Millisecond)
	if got := c.Acquire("worker-c", 1); len(got) != 0 {
		t.Fatalf("renewed lease was reclaimed early: %+v", got)
	}

	// Worker A dies (never renews again); every lease expires and the
	// shard is re-granted — once.
	clk.advance(2 * time.Second)
	lb := c.Acquire("worker-b", 1)
	if len(lb) != 1 || lb[0].Shard != s {
		t.Fatalf("expired shard %d not re-granted: %+v", s, lb)
	}
	for _, l := range c.Acquire("worker-c", c.Shards()) {
		if l.Shard == s {
			t.Fatalf("shard %d granted twice concurrently", s)
		}
	}
	// Let worker-c's claims lapse too (it never computes anything), so
	// the RunLocal pass below can reclaim every remaining shard.
	clk.advance(2 * time.Second)

	parts, err := c.Evaluator().EvalShard(context.Background(), s)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if accepted, err := c.Submit("tester", s, parts, 0.1); err != nil || !accepted {
		t.Fatalf("b's submit: accepted=%v err=%v", accepted, err)
	}
	// Worker A's zombie upload of the same shard: idempotent no-op.
	if accepted, err := c.Submit("tester", s, parts, 0.1); err != nil || accepted {
		t.Fatalf("duplicate submit: accepted=%v err=%v (want false, nil)", accepted, err)
	}

	// Finish the rest and check the fold saw the shard exactly once.
	if err := c.RunLocal(context.Background(), "worker-b", 2); err != nil {
		t.Fatalf("run local: %v", err)
	}
	got, ok := c.Result()
	if !ok {
		t.Fatalf("no result")
	}
	want, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Fatalf("result after reclaim differs from Run:\n got %s\nwant %s", resultJSON(t, got), resultJSON(t, want))
	}
}

// TestSubmitRejectsWrongGeometry: a submission whose chunk count or
// per-chunk trial tallies disagree with the plan is an error, not a
// silent fold.
func TestSubmitRejectsWrongGeometry(t *testing.T) {
	cfg := RunConfig{Trials: 3 * defectChunkTrials, Shards: 3, Seed: 1}
	c, _ := defectCoordinator(t, cfg, CoordinatorConfig{})
	parts, err := c.Evaluator().EvalShard(context.Background(), 0)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if _, err := c.Submit("tester", -1, parts, 0); err == nil {
		t.Fatalf("negative shard accepted")
	}
	if _, err := c.Submit("tester", c.Shards(), parts, 0); err == nil {
		t.Fatalf("out-of-range shard accepted")
	}
	if _, err := c.Submit("tester", 0, parts[:0], 0); err == nil {
		t.Fatalf("empty chunk list accepted")
	}
	bad := append([]Partial(nil), parts...)
	bad[0].Trials++
	if _, err := c.Submit("tester", 0, bad, 0); err == nil {
		t.Fatalf("wrong per-chunk trial count accepted")
	}
	if accepted, err := c.Submit("tester", 0, parts, 0); err != nil || !accepted {
		t.Fatalf("valid submit after rejections: accepted=%v err=%v", accepted, err)
	}
}

// TestCoordinatorCheckpointResume: a coordinator killed mid-run resumes
// from its shard log, re-grants only unmerged shards — the one leased
// before the crash included, since leases live in memory only — and the
// final result is byte-identical.
func TestCoordinatorCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	cfg := RunConfig{Trials: 5*defectChunkTrials + 3, Shards: 5, Seed: 21, CheckpointDir: dir}
	c1, k := defectCoordinator(t, cfg, CoordinatorConfig{LeaseTTL: time.Minute, now: clk.now})

	// Merge two shards, lease a third, then "crash".
	for _, s := range []int{0, 1} {
		parts, err := c1.Evaluator().EvalShard(context.Background(), s)
		if err != nil {
			t.Fatalf("eval %d: %v", s, err)
		}
		if accepted, err := c1.Submit("tester", s, parts, 0); err != nil || !accepted {
			t.Fatalf("submit %d: accepted=%v err=%v", s, accepted, err)
		}
	}
	if ls := c1.Acquire("remote-worker", 1); len(ls) != 1 || ls[0].Shard != 2 {
		t.Fatalf("lease before crash: %+v", ls)
	}
	c1.Close()

	c2, err := NewCoordinator(k, cfg, CoordinatorConfig{LeaseTTL: time.Minute, now: clk.now})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer c2.Close()
	if p := c2.Progress(); p.ShardsResumed != 2 || p.ShardsDone != 2 {
		t.Fatalf("resumed progress: %+v", p)
	}
	// The shard log is the only durable state: every unmerged shard is
	// grantable at once, the one leased before the crash included.
	if got := c2.Leasable(); got != 3 {
		t.Fatalf("leasable after resume = %d, want 3 (every unmerged shard)", got)
	}
	if err := c2.RunLocal(context.Background(), "local", 2); err != nil {
		t.Fatalf("run local after resume: %v", err)
	}
	got, ok := c2.Result()
	if !ok {
		t.Fatalf("no result after resume")
	}
	want, err := Run(context.Background(), k, RunConfig{Trials: cfg.Trials, Shards: cfg.Shards, Seed: cfg.Seed})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Fatalf("resumed distributed result differs from Run:\n got %s\nwant %s", resultJSON(t, got), resultJSON(t, want))
	}
}

// TestRunLocalMatchesRun: the coordinator's in-process worker loop is
// just another execution schedule, so its result is byte-identical to
// Run's.
func TestRunLocalMatchesRun(t *testing.T) {
	cfg := RunConfig{Trials: 7*defectChunkTrials + 123, Shards: 6, Seed: 5}
	c, k := defectCoordinator(t, cfg, CoordinatorConfig{LeaseTTL: time.Minute})
	if err := c.RunLocal(context.Background(), "local", 3); err != nil {
		t.Fatalf("run local: %v", err)
	}
	got, ok := c.Result()
	if !ok {
		t.Fatalf("no result")
	}
	want, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Fatalf("RunLocal result differs from Run:\n got %s\nwant %s", resultJSON(t, got), resultJSON(t, want))
	}
}

// TestRunLocalCancel: cancelling the context stops the loop with
// context.Canceled and leaves the run unfinished.
func TestRunLocalCancel(t *testing.T) {
	cfg := RunConfig{Trials: 64 * defectChunkTrials, Shards: 64, Seed: 3}
	c, _ := defectCoordinator(t, cfg, CoordinatorConfig{LeaseTTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunLocal(ctx, "local", 2); err != context.Canceled {
		t.Fatalf("cancelled RunLocal returned %v, want context.Canceled", err)
	}
	if _, ok := c.Result(); ok {
		t.Fatalf("cancelled run reported a result")
	}
}

// TestCheckpointResumeContinuesTimeline stops a checkpointed coordinator
// mid-run (RunLocal cancelled, then Close), reopens it on the same
// directory and finishes the run. The timeline the second coordinator
// serves is the job log replayed and continued: one gap-free seq
// sequence from 1, with the first run's flushes and merges before
// checkpoint_resumed. The result matches an uninterrupted Run to the bit.
func TestCheckpointResumeContinuesTimeline(t *testing.T) {
	cfg := RunConfig{Trials: 8*defectChunkTrials + 5, Shards: 8, Seed: 41}
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnProgress = func(p Progress) {
		if p.ShardsDone >= 3 {
			cancel()
		}
	}
	c1, err := NewCoordinator(k, cfg, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.RunLocal(ctx, "first", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run returned %v, want context.Canceled", err)
	}
	c1.Close()

	cfg.OnProgress = nil
	c2, err := NewCoordinator(k, cfg, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.RunLocal(context.Background(), "second", 2); err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Result()
	if !ok {
		t.Fatal("no result after resume")
	}
	mustEqualResults(t, "resumed", want, got)

	evs, dropped := c2.Events().Snapshot(0)
	if dropped != 0 || len(evs) == 0 {
		t.Fatalf("timeline holds %d events, dropped %d", len(evs), dropped)
	}
	resumed := -1
	before := map[string]int{}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d (%s) has seq %d, want %d: the timeline is not one gap-free sequence", i, ev.Type, ev.Seq, i+1)
		}
		if ev.Type == EventCheckpointResume && resumed < 0 {
			resumed = i
		}
		if resumed < 0 {
			before[ev.Type]++
		}
	}
	if resumed < 0 {
		t.Fatalf("no %s event in %+v", EventCheckpointResume, evs)
	}
	if before[EventCheckpointFlush] < 3 || before[EventShardMerged] < 3 {
		t.Fatalf("before %s: %d flushes and %d merges, want the first run's 3 of each",
			EventCheckpointResume, before[EventCheckpointFlush], before[EventShardMerged])
	}
	if before[EventSubmitted] != 2 {
		t.Fatalf("before %s: %d submitted events, want one per run", EventCheckpointResume, before[EventSubmitted])
	}
}
