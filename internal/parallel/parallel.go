// Package parallel is the repository's deterministic parallel execution
// engine: a bounded worker pool with ForEach, Map, chunked
// (ForEachChunkTuned) and error-isolating (MapAllInto) primitives,
// context cancellation and first-error propagation.
//
// The package exists to make the Monte Carlo, wafer-map, sweep and layout
// hot paths scale with cores without giving up reproducibility. The
// contract every caller relies on is:
//
//   - Work is partitioned by index (or by fixed-size chunk), never by
//     worker, so the partitioning depends only on the problem size.
//   - Results are written into index-addressed slots and callers reduce
//     them in index order after the pool drains, so the output is
//     byte-identical for any worker count, including 1.
//   - Randomized work derives one RNG stream per index/chunk from the
//     caller's seed (see stats.RNG.SplitN and stats.StreamSeed), never a
//     shared stream, so scheduling order cannot leak into the numbers.
//
// Worker counts resolve as: explicit positive value → itself; 0 or
// negative → the package default, which starts at runtime.NumCPU() and can
// be overridden globally (e.g. by a CLI -workers flag) via SetDefaultWorkers.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// defaultWorkers holds the global default worker count; 0 means
// runtime.NumCPU() resolved at call time.
var defaultWorkers atomic.Int64

// DefaultWorkers returns the current default worker count: the value set
// by SetDefaultWorkers, or runtime.NumCPU() when unset.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.NumCPU()
}

// SetDefaultWorkers overrides the process-wide default worker count used
// when a caller passes workers <= 0. Passing n <= 0 resets to
// runtime.NumCPU(). CLI entry points call this from their -workers flag.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Resolve maps a caller-provided worker count to the effective one:
// positive values pass through, everything else resolves to the default.
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return DefaultWorkers()
}

// panicError carries a recovered worker panic back to the caller's
// goroutine, where it is re-raised so parallel code panics exactly like
// its serial equivalent would.
type panicError struct{ value any }

func (p panicError) Error() string { return fmt.Sprintf("parallel: worker panic: %v", p.value) }

// run executes fn(i) for i in [0, n) on up to `workers` goroutines using an
// atomic work counter, honoring ctx and stopping early on the first error.
// It returns the first error observed (by stop order, not index order).
func run(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	// One span per pooled job (not per item): on an untraced context this
	// is a nil no-op; on a traced one the span's n/workers attributes tell
	// the -trace tree and /debug/trace how the job was partitioned.
	if ctx2, span := obs.StartSpan(ctx, "parallel.run"); span != nil {
		ctx = ctx2
		span.SetAttr("n", strconv.Itoa(n))
		span.SetAttr("workers", strconv.Itoa(workers))
		defer span.End()
	}
	if workers == 1 {
		// Serial fast path: no goroutines, no atomics, same semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		errOnce sync.Once
		first   error
		wg      sync.WaitGroup
	)
	record := func(err error) {
		errOnce.Do(func() { first = err })
		stopped.Store(true)
	}
	worker := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				record(panicError{value: r})
			}
		}()
		for {
			if stopped.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				record(err)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				record(err)
				return
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if pe, ok := first.(panicError); ok {
		panic(pe.value)
	}
	return first
}

// ForEach executes fn(i) for every i in [0, n) on up to `workers`
// goroutines (workers <= 0 uses the package default). The first error
// cancels remaining work and is returned; a worker panic is re-raised on
// the calling goroutine. fn must be safe to call concurrently and should
// write only to index-owned state if determinism matters.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return run(ctx, n, workers, fn)
}

// Chunks returns the number of fixed-size chunks covering n items, which
// depends only on (n, chunkSize) — never on the worker count. Callers use
// it to pre-derive one RNG stream per chunk.
func Chunks(n, chunkSize int) int {
	if n <= 0 || chunkSize <= 0 {
		return 0
	}
	return (n + chunkSize - 1) / chunkSize
}

// ForEachChunkTuned partitions [0, n) into fixed unit chunks of
// chunkSize items and executes fn(chunk, lo, hi) for each half-open range
// [lo, hi). Chunk boundaries depend only on (n, chunkSize), so per-chunk
// RNG streams give results independent of the worker count. The tuner
// picks how many unit chunks one scheduled task covers (from its measured
// per-chunk execution history) and is fed this job's timings in return;
// a nil tuner schedules chunk by chunk. The chosen group size is recorded
// on the job's span ("parallel.chunks", attributes chunk_size / group /
// chunks), so tuning decisions are observable per trace, and each task's
// queue-wait (submission to pickup) and execution time feed the package's
// telemetry histograms.
func ForEachChunkTuned(ctx context.Context, n, chunkSize, workers int, t *ChunkTuner, fn func(chunk, lo, hi int) error) error {
	group := 1
	if t != nil {
		group = t.Group(Chunks(n, chunkSize), workers)
	}
	return forEachChunkGrouped(ctx, n, chunkSize, workers, group, t, fn)
}

// forEachChunkGrouped is the shared chunked executor: it schedules
// Chunks(n, chunkSize) unit chunks in tasks of `group` consecutive chunks
// (group < 1 means 1), observes one queue-wait/exec histogram sample per
// task (amortized over the group, so telemetry cost cannot grow with item
// count), and feeds the tuner when present. fn still receives every unit
// chunk exactly once, in ascending order within a task, so unit-chunk-
// keyed RNG streams and index-addressed writes are byte-identical for
// every group value: the group only decides which goroutine runs a chunk,
// never what the chunk computes.
func forEachChunkGrouped(ctx context.Context, n, chunkSize, workers, group int, t *ChunkTuner, fn func(chunk, lo, hi int) error) error {
	if chunkSize <= 0 {
		return fmt.Errorf("parallel: chunk size must be positive, got %d", chunkSize)
	}
	chunks := Chunks(n, chunkSize)
	if group < 1 {
		group = 1
	}
	tasks := Chunks(chunks, group)
	if ctx2, span := obs.StartSpan(ctx, "parallel.chunks"); span != nil {
		ctx = ctx2
		span.SetAttr("chunk_size", strconv.Itoa(chunkSize))
		span.SetAttr("group", strconv.Itoa(group))
		span.SetAttr("chunks", strconv.Itoa(chunks))
		defer span.End()
	}
	submitted := time.Now()
	return run(ctx, tasks, workers, func(task int) error {
		picked := time.Now()
		chunkWaitSeconds.Observe(picked.Sub(submitted).Seconds())
		cLo := task * group
		cHi := cLo + group
		if cHi > chunks {
			cHi = chunks
		}
		for c := cLo; c < cHi; c++ {
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			if err := fn(c, lo, hi); err != nil {
				chunkExecSeconds.Observe(time.Since(picked).Seconds())
				return err
			}
		}
		exec := time.Since(picked).Seconds()
		chunkExecSeconds.Observe(exec)
		if t != nil {
			t.note(cHi-cLo, exec)
		}
		return nil
	})
}

// Map evaluates fn(i) for i in [0, n) in parallel and returns the results
// in index order, so the output slice is identical for any worker count.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := run(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapAllInto evaluates fn(i) for every i in [0, len(out)) in parallel
// with per-item error isolation: unlike Map, one item's failure does not
// cancel the remaining items — it lands in errs[i] and the rest of the
// batch keeps going. Only a dead context stops the batch early (returned
// as stop, with the buffers' contents unspecified); a worker panic is
// re-raised. It is the engine behind batch serving, where scenario i
// being out of domain must not poison scenarios j != i.
//
// Results and errors are written into the caller-owned, index-addressed
// buffers out and errs, which must have equal length; every slot is
// overwritten (stale contents from a previous use cannot leak through),
// so both are identical for any worker count and the buffers can be
// pooled across requests — steady state it performs no per-item
// allocation of its own. Items run in tuner-sized groups of consecutive
// indices (a nil tuner schedules item by item), which is what lets a
// 1024-item batch of microsecond evaluations stop paying per-item pickup
// overhead.
func MapAllInto[T any](ctx context.Context, out []T, errs []error, workers int, t *ChunkTuner, fn func(i int) (T, error)) (stop error) {
	if len(out) != len(errs) {
		return fmt.Errorf("parallel: MapAllInto buffers disagree: %d results vs %d errors", len(out), len(errs))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(out)
	return forEachChunkGrouped(ctx, n, 1, workers, groupFor(t, n, workers), t, func(_, lo, _ int) error {
		i := lo
		v, err := fn(i)
		if cerr := ctx.Err(); cerr != nil {
			// The context died mid-item: abort the batch rather than
			// recording a cancellation as an item-level verdict.
			return cerr
		}
		if err != nil {
			var zero T
			out[i] = zero
			errs[i] = err
			return nil
		}
		out[i] = v
		errs[i] = nil
		return nil
	})
}

// groupFor resolves a tuner's group choice, treating nil as group 1.
func groupFor(t *ChunkTuner, chunks, workers int) int {
	if t == nil {
		return 1
	}
	return t.Group(chunks, workers)
}

// Do runs the given functions concurrently (bounded by the default worker
// count) and returns the first error. It is the two-or-three-task
// convenience used by e.g. CrossoverVolume's endpoint evaluations.
func Do(ctx context.Context, fns ...func() error) error {
	return run(ctx, len(fns), 0, func(i int) error { return fns[i]() })
}
