package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaultWorkersResolution(t *testing.T) {
	defer SetDefaultWorkers(0)
	if DefaultWorkers() != runtime.NumCPU() {
		t.Fatalf("default workers = %d, want NumCPU = %d", DefaultWorkers(), runtime.NumCPU())
	}
	SetDefaultWorkers(3)
	if DefaultWorkers() != 3 {
		t.Fatalf("after SetDefaultWorkers(3): %d", DefaultWorkers())
	}
	if Resolve(7) != 7 {
		t.Fatalf("Resolve(7) = %d", Resolve(7))
	}
	if Resolve(0) != 3 {
		t.Fatalf("Resolve(0) = %d, want 3", Resolve(0))
	}
	if Resolve(-1) != 3 {
		t.Fatalf("Resolve(-1) = %d, want 3", Resolve(-1))
	}
	SetDefaultWorkers(0)
	if DefaultWorkers() != runtime.NumCPU() {
		t.Fatalf("reset failed: %d", DefaultWorkers())
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 1000
		counts := make([]atomic.Int64, n)
		err := ForEach(context.Background(), n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndNilContext(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatalf("n=0 returned %v", err)
	}
	if err := ForEach(nil, 10, 2, func(int) error { return nil }); err != nil {
		t.Fatalf("nil context returned %v", err)
	}
}

func TestForEachFirstErrorPropagates(t *testing.T) {
	want := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		err := ForEach(context.Background(), 100000, workers, func(i int) error {
			calls.Add(1)
			if i == 17 {
				return want
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, want)
		}
		// Early stop: nowhere near all 100k indices should have run.
		if c := calls.Load(); c > 50000 {
			t.Fatalf("workers=%d: %d calls after early error", workers, c)
		}
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- ForEach(ctx, 1<<30, 2, func(i int) error {
			if calls.Add(1) == 100 {
				cancel()
			}
			time.Sleep(10 * time.Microsecond)
			return nil
		})
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the pool")
	}
}

func TestForEachPanicRepropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "kaboom" {
					t.Fatalf("workers=%d: recovered %v, want kaboom", workers, r)
				}
			}()
			_ = ForEach(context.Background(), 64, workers, func(i int) error {
				if i == 13 {
					panic("kaboom")
				}
				return nil
			})
			t.Fatalf("workers=%d: no panic surfaced", workers)
		}()
	}
}

func TestChunksArithmetic(t *testing.T) {
	cases := []struct{ n, size, want int }{
		{0, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {100, 7, 15}, {-5, 10, 0}, {10, 0, 0},
	}
	for _, c := range cases {
		if got := Chunks(c.n, c.size); got != c.want {
			t.Fatalf("Chunks(%d, %d) = %d, want %d", c.n, c.size, got, c.want)
		}
	}
}

func TestForEachChunkCoversRangeExactly(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n, size = 1003, 64
		seen := make([]atomic.Int64, n)
		err := ForEachChunkTuned(context.Background(), n, size, workers, nil, func(chunk, lo, hi int) error {
			if lo != chunk*size {
				return fmt.Errorf("chunk %d: lo = %d", chunk, lo)
			}
			if hi-lo > size || hi > n {
				return fmt.Errorf("chunk %d: bad range [%d, %d)", chunk, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestForEachChunkRejectsBadChunkSize(t *testing.T) {
	if err := ForEachChunkTuned(context.Background(), 10, 0, 1, nil, func(int, int, int) error { return nil }); err == nil {
		t.Fatal("accepted chunk size 0")
	}
}

func TestMapPreservesIndexOrder(t *testing.T) {
	const n = 500
	var want []int
	for i := 0; i < n; i++ {
		want = append(want, i*i)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := Map(context.Background(), n, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapErrorDropsResults(t *testing.T) {
	want := errors.New("nope")
	got, err := Map(context.Background(), 100, 4, func(i int) (int, error) {
		if i == 50 {
			return 0, want
		}
		return i, nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	if got != nil {
		t.Fatal("results returned alongside error")
	}
}

func TestDoRunsAllAndPropagatesError(t *testing.T) {
	var a, b atomic.Bool
	if err := Do(context.Background(),
		func() error { a.Store(true); return nil },
		func() error { b.Store(true); return nil },
	); err != nil {
		t.Fatal(err)
	}
	if !a.Load() || !b.Load() {
		t.Fatal("not all funcs ran")
	}
	want := errors.New("second failed")
	if err := Do(context.Background(),
		func() error { return nil },
		func() error { return want },
	); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

// mapAll runs MapAllInto into fresh buffers.
func mapAll[T any](ctx context.Context, n, workers int, t *ChunkTuner, fn func(i int) (T, error)) ([]T, []error, error) {
	out, errs := make([]T, n), make([]error, n)
	stop := MapAllInto(ctx, out, errs, workers, t, fn)
	return out, errs, stop
}

// TestMapAllIsolatesItemErrors: a failing item must not cancel its
// neighbours; results and errors stay index-addressed for any worker count.
func TestMapAllIsolatesItemErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 64
			out, errs, stop := mapAll(context.Background(), n, workers, nil, func(i int) (int, error) {
				if i%5 == 0 {
					return 0, fmt.Errorf("item %d: %w", i, boom)
				}
				return i * i, nil
			})
			if stop != nil {
				t.Fatalf("stop = %v, want nil", stop)
			}
			for i := 0; i < n; i++ {
				if i%5 == 0 {
					if !errors.Is(errs[i], boom) {
						t.Fatalf("errs[%d] = %v, want boom", i, errs[i])
					}
					continue
				}
				if errs[i] != nil {
					t.Fatalf("errs[%d] = %v, want nil", i, errs[i])
				}
				if out[i] != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, out[i], i*i)
				}
			}
		})
	}
}

// TestMapAllDeterministicAcrossWorkers: identical slices for 1, 2 and 4
// workers — the batch-serving ordering contract.
func TestMapAllDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]float64, []error) {
		out, errs, stop := mapAll(context.Background(), 100, workers, nil, func(i int) (float64, error) {
			if i == 17 || i == 63 {
				return 0, errors.New("bad point")
			}
			return float64(i) * 1.5, nil
		})
		if stop != nil {
			t.Fatalf("stop = %v", stop)
		}
		return out, errs
	}
	base, baseErrs := run(1)
	for _, workers := range []int{2, 4} {
		out, errs := run(workers)
		for i := range base {
			if out[i] != base[i] || (errs[i] == nil) != (baseErrs[i] == nil) {
				t.Fatalf("workers=%d diverges at index %d", workers, i)
			}
		}
	}
}

// TestMapAllContextCancellation: a dead context stops the batch before
// any item runs and is returned as stop.
func TestMapAllContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var evaluated atomic.Int64
	_, _, stop := mapAll(ctx, 32, 4, nil, func(i int) (int, error) {
		evaluated.Add(1)
		return i, nil
	})
	if !errors.Is(stop, context.Canceled) {
		t.Fatalf("stop = %v, want context.Canceled", stop)
	}
	if n := evaluated.Load(); n != 0 {
		t.Fatalf("%d items evaluated on a dead context", n)
	}
}

// TestMapAllMidItemCancellation: a context that dies while items are being
// evaluated aborts instead of recording the cancellation per item.
func TestMapAllMidItemCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var evaluated atomic.Int64
	_, _, stop := mapAll(ctx, 1000, 4, nil, func(i int) (int, error) {
		if evaluated.Add(1) == 10 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(stop, context.Canceled) {
		t.Fatalf("stop = %v, want context.Canceled", stop)
	}
	if n := evaluated.Load(); n >= 1000 {
		t.Fatalf("all %d items evaluated despite cancellation", n)
	}
}
