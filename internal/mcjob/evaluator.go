package mcjob

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/stats"
)

// ShardEvaluator evaluates individual shards of one run plan. It is the
// unit of work the distributed tier ships between replicas: every
// replica that builds an evaluator from the same (kernel spec, trials,
// shards, seed) computes the same geometry and the same per-chunk
// streams, so a shard's partials are identical no matter which host
// produced them. The Coordinator's local workers execute through it too.
//
// EvalShard is safe for concurrent use: the evaluator's state (plan and
// per-shard start streams) is immutable after construction.
type ShardEvaluator struct {
	k      Kernel
	p      plan
	starts []stats.RNG
}

// NewShardEvaluator validates (k, cfg) and fixes the run geometry: the
// plan plus, for stream kernels, each shard's RNG start state, obtained
// by one incremental jump walk over the chunk sequence (chunk c's
// stream is the seed state after c jumps — SplitN's exact layout
// without materializing every chunk generator). Only Trials, Shards and
// Seed of cfg matter here.
func NewShardEvaluator(k Kernel, cfg RunConfig) (*ShardEvaluator, error) {
	if k == nil {
		return nil, fmt.Errorf("mcjob: nil kernel")
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("mcjob: trials must be positive, got %d", cfg.Trials)
	}
	if tb, ok := k.(trialBounded); ok && cfg.Trials > tb.MaxTrials() {
		return nil, fmt.Errorf("mcjob: %s kernel covers %d trials, config asks for %d", k.Kind(), tb.MaxTrials(), cfg.Trials)
	}
	if k.ChunkTrials() <= 0 {
		return nil, fmt.Errorf("mcjob: kernel %s reports non-positive chunk size", k.Kind())
	}
	e := &ShardEvaluator{k: k, p: newPlan(cfg.Trials, k.ChunkTrials(), cfg.Shards)}
	if !k.Keyed() {
		e.starts = make([]stats.RNG, e.p.shards)
		walker := stats.Seeded(cfg.Seed)
		chunk := 0
		for s := 0; s < e.p.shards; s++ {
			lo, _ := e.p.shardChunks(s)
			for chunk < lo {
				walker.Jump()
				chunk++
			}
			e.starts[s] = walker
		}
	}
	return e, nil
}

// EvalShard computes shard s's per-chunk partials in chunk order. The
// returned slice depends only on (kernel spec, trials, seed, s) — never
// on the host, the shard count of other shards, or prior calls.
func (e *ShardEvaluator) EvalShard(ctx context.Context, s int) ([]Partial, error) {
	if s < 0 || s >= e.p.shards {
		return nil, fmt.Errorf("mcjob: shard %d out of range [0,%d)", s, e.p.shards)
	}
	cLo, cHi := e.p.shardChunks(s)
	parts := make([]Partial, 0, cHi-cLo)
	var walker stats.RNG
	if !e.k.Keyed() {
		walker = e.starts[s]
	}
	for c := cLo; c < cHi; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tLo, tHi := e.p.chunkTrialRange(c)
		var pt Partial
		var err error
		if e.k.Keyed() {
			pt, err = e.k.Chunk(tLo, tHi, nil)
		} else {
			rc := walker // pristine per-chunk copy; kernel consumption never shifts the walk
			pt, err = e.k.Chunk(tLo, tHi, &rc)
			walker.Jump()
		}
		if err != nil {
			return nil, fmt.Errorf("mcjob: shard %d chunk %d: %w", s, c, err)
		}
		parts = append(parts, pt)
		// A replica evaluates shards on every core while it serves
		// requests; yielding after each chunk lets a handler that is
		// already runnable get a CPU within a chunk instead of at the
		// next async preemption, up to 10 ms of compute later. It does
		// not make a new request runnable sooner. Gosched puts this
		// goroutine on the global run queue, and while shard workers
		// hold every P the scheduler takes work from that queue before
		// it reaches its network poll, so sockets are polled only by
		// sysmon, once the last poll is over 10 ms old. A request that
		// arrives mid-job therefore waits up to ~10 ms to be seen
		// (DESIGN §13, "Latency while a job runs").
		runtime.Gosched()
	}
	return parts, nil
}
