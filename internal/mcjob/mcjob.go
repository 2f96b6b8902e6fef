// Package mcjob is the sharded Monte Carlo execution engine: it splits
// one huge simulation — abstract defect yield, geometric layout defects,
// cost Monte Carlo, wafer maps — into fixed-size shards of trial chunks,
// leases shards to workers in this process or on peer replicas, and
// merges partial tallies online in canonical chunk order. The
// Coordinator is the one engine: it owns the merger, the checkpoint and
// the progress accounting, and Run is a Coordinator with no peers driven
// by its own in-process workers.
//
// Determinism is the package's contract. Trials are divided into fixed
// unit chunks whose size depends only on the kernel kind; each chunk
// draws from its own guaranteed-disjoint RNG sub-stream (chunk c's
// stream is the seed state advanced c stats.RNG.Jump steps — exactly
// SplitN's layout, walked incrementally so a 10⁹-trial run never
// materializes millions of streams). A shard is a contiguous chunk
// range, and the merger folds per-chunk partials in ascending global
// chunk order regardless of shard completion order. Both the draws and
// the float fold order are therefore functions of (kernel, trials, seed)
// alone, so the merged result is bit-identical (Float64bits) to a
// single-worker single-shard run for every shard count, worker count and
// interleaving.
//
// Completed shards checkpoint to disk (see checkpoint.go): a killed run
// restarted with the same spec replays nothing but the pending shards.
package mcjob

import (
	"context"

	"repro/internal/stats"
)

// Partial is one chunk's tally. Float accumulators are folded in draw
// order inside the chunk; integer fields are exact under any grouping.
// The short JSON keys keep checkpoint shard lines compact — a 10⁹-trial
// run writes one Partial per chunk. encoding/json renders float64 in
// shortest round-trip form, so a Partial survives a checkpoint cycle
// bit-identically.
type Partial struct {
	Trials int64   `json:"t"`
	Good   int64   `json:"g,omitempty"`
	Events int64   `json:"e,omitempty"`
	Sum    float64 `json:"s,omitempty"`
	Sum2   float64 `json:"s2,omitempty"`
	Min    float64 `json:"mn,omitempty"`
	Max    float64 `json:"mx,omitempty"`
}

// Tally is the canonical-order fold of chunk partials. Sum and friends
// are only meaningful once every chunk has been folded.
type Tally struct {
	Chunks int
	Trials int64
	Good   int64
	Events int64
	Sum    float64
	Sum2   float64
	Min    float64
	Max    float64
}

// fold absorbs the next chunk partial in canonical order.
func (t *Tally) fold(p Partial) {
	if t.Chunks == 0 {
		t.Min, t.Max = p.Min, p.Max
	} else {
		if p.Min < t.Min {
			t.Min = p.Min
		}
		if p.Max > t.Max {
			t.Max = p.Max
		}
	}
	t.Chunks++
	t.Trials += p.Trials
	t.Good += p.Good
	t.Events += p.Events
	t.Sum += p.Sum
	t.Sum2 += p.Sum2
}

// Result is the deterministic outcome envelope of a sharded run. Counts
// and Values marshal with sorted keys (encoding/json sorts map keys), so
// for a fixed spec the JSON encoding is byte-identical across runs,
// shard counts and checkpoint resumes — which is what lets the smoke
// test compare a resumed run to an uninterrupted one bytewise.
type Result struct {
	Kind   string             `json:"kind"`
	Trials int64              `json:"trials"`
	Shards int                `json:"shards"`
	Seed   uint64             `json:"seed"`
	Counts map[string]int64   `json:"counts"`
	Values map[string]float64 `json:"values"`
}

// Progress is a point-in-time snapshot delivered to RunConfig.OnProgress
// after every completed shard (and once up front on resume).
type Progress struct {
	Shards        int
	ShardsDone    int
	ShardsResumed int
	// CheckpointSkipped counts shard-log records dropped during replay
	// (torn, malformed, oversized or inconsistent): those shards rerun,
	// and the count is the signal that they did.
	CheckpointSkipped int
	Trials            int64
	TrialsDone        int64
	TrialsResumed     int64
	// LastShard identifies the shard whose completion triggered this
	// snapshot (-1 for the initial resume snapshot), and
	// LastShardSeconds its wall-clock evaluation time.
	LastShard        int
	LastShardSeconds float64
}

// RunConfig parameterizes one sharded run.
type RunConfig struct {
	Trials int64
	// Shards is the shard count; <= 0 picks min(chunks, 64). More shards
	// than chunks is clamped to chunks — a shard always covers at least
	// one chunk. The shard count never affects the merged result, only
	// checkpoint granularity and scheduling.
	Shards int
	Seed   uint64
	// Workers bounds evaluation goroutines; <= 0 uses
	// parallel.DefaultWorkers. Never affects the result.
	Workers int
	// CheckpointDir, when non-empty, persists completed shards under this
	// directory and resumes from it on restart. The directory is created
	// if missing; a manifest mismatch (different spec) fails the run.
	CheckpointDir string
	// SpecHash optionally pins the full job spec in the checkpoint
	// manifest, guarding against two different jobs sharing a directory.
	SpecHash string
	// OnProgress, when set, receives a snapshot after each completed
	// shard. Called outside the engine's lock, possibly concurrently.
	OnProgress func(Progress)
}

// defaultShards bounds the shard count when the caller does not choose:
// enough for checkpoint granularity and scheduling freedom, few enough
// that manifest and progress stay small.
const defaultShards = 64

// plan fixes the geometry of a run: unit chunks of kernel-kind-specific
// size, shards as contiguous chunk ranges split as evenly as possible.
// Everything depends only on (trials, chunkTrials, shards).
type plan struct {
	trials      int64
	chunkTrials int64
	chunks      int
	shards      int
}

func newPlan(trials, chunkTrials int64, shards int) plan {
	p := plan{trials: trials, chunkTrials: chunkTrials}
	p.chunks = int((trials + chunkTrials - 1) / chunkTrials)
	p.shards = shards
	if p.shards <= 0 {
		p.shards = defaultShards
	}
	if p.shards > p.chunks {
		p.shards = p.chunks
	}
	return p
}

// NormalizedShards reports the shard count a run actually uses for a
// kernel with unit chunks of chunkTrials: the caller's choice with the
// default applied and the chunk-count clamp, exactly as the execution
// plan resolves it. The serve layer canonicalizes job specs through this
// before hashing them into job IDs, so an omitted shard count and an
// explicit one that resolves identically name the same job.
func NormalizedShards(chunkTrials, trials int64, shards int) int {
	if chunkTrials <= 0 || trials <= 0 {
		return 0
	}
	return newPlan(trials, chunkTrials, shards).shards
}

// shardChunks returns shard s's half-open global chunk range.
func (p plan) shardChunks(s int) (lo, hi int) {
	lo = int(int64(s) * int64(p.chunks) / int64(p.shards))
	hi = int(int64(s+1) * int64(p.chunks) / int64(p.shards))
	return lo, hi
}

// chunkTrialRange returns chunk c's half-open global trial range; the
// final chunk absorbs the remainder.
func (p plan) chunkTrialRange(c int) (lo, hi int64) {
	lo = int64(c) * p.chunkTrials
	hi = lo + p.chunkTrials
	if hi > p.trials {
		hi = p.trials
	}
	return lo, hi
}

// shardTrials returns the trial count shard s covers.
func (p plan) shardTrials(s int) int64 {
	cLo, cHi := p.shardChunks(s)
	if cLo >= cHi {
		return 0
	}
	lo, _ := p.chunkTrialRange(cLo)
	_, hi := p.chunkTrialRange(cHi - 1)
	return hi - lo
}

// Kernel is one simulation kind, prepared once and evaluated chunk by
// chunk. Chunk must be pure over (lo, hi, r): it is called concurrently
// and must consume only the stream it is handed.
type Kernel interface {
	// Kind names the kernel in results and checkpoint manifests.
	Kind() string
	// ChunkTrials is the fixed unit-chunk size. It is part of the
	// deterministic contract: changing it re-keys every stream.
	ChunkTrials() int64
	// Keyed reports whether the kernel derives its own randomness from
	// the trial index (stats.StreamSeed) instead of the jump-walked
	// stream; for keyed kernels Chunk receives a nil RNG.
	Keyed() bool
	// Chunk evaluates trials [lo, hi) from r and returns their tally.
	Chunk(lo, hi int64, r *stats.RNG) (Partial, error)
	// Finalize maps the full-run tally to the result envelope.
	Finalize(t Tally, cfg RunConfig) Result
}

// trialBounded is implemented by kernels whose spec fixes the trial
// count (the wafer-map kernel simulates exactly its configured lot);
// NewShardEvaluator rejects a mismatched RunConfig.Trials instead of
// indexing past the precomputed per-wafer state.
type trialBounded interface {
	MaxTrials() int64
}

// Run executes the sharded simulation on this process's cores and
// returns the merged result: a Coordinator with no peers, driven by its
// own RunLocal. The result depends only on (kernel spec, Trials, Seed):
// Shards, Workers, scheduling, and any checkpoint/resume history are all
// invisible in the output, bit for bit.
func Run(ctx context.Context, k Kernel, cfg RunConfig) (Result, error) {
	c, err := NewCoordinator(k, cfg, CoordinatorConfig{})
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	if err := c.RunLocal(ctx, "local", cfg.Workers); err != nil {
		return Result{}, err
	}
	res, _ := c.Result()
	return res, nil
}
