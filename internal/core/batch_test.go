package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/parallel"
)

func TestTransistorCostCtx(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	want, err := s.TransistorCost()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.TransistorCostCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ctx-aware breakdown %+v != plain %+v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.TransistorCostCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvalBatchCtxIsolatesAndOrders: out-of-domain scenarios land in their
// own error slot without poisoning neighbours, results are in input order,
// and the whole batch is deterministic across worker counts.
func TestEvalBatchCtxIsolatesAndOrders(t *testing.T) {
	scs := make([]Scenario, 40)
	for i := range scs {
		scs[i] = figure4Scenario(1000+float64(i)*100, 0.4)
		if i%7 == 3 {
			scs[i].Design.Sd = scs[i].DesignCost.Sd0 // the eq (6) pole
		}
	}
	eval := func(workers int) ([]Breakdown, []error) {
		old := parallel.DefaultWorkers()
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(old)
		bs, errs, stop := EvalBatchCtx(context.Background(), scs)
		if stop != nil {
			t.Fatalf("stop = %v", stop)
		}
		return bs, errs
	}
	base, baseErrs := eval(1)
	for i := range scs {
		if i%7 == 3 {
			if !errors.Is(baseErrs[i], ErrOutOfDomain) {
				t.Fatalf("errs[%d] = %v, want ErrOutOfDomain", i, baseErrs[i])
			}
			continue
		}
		if baseErrs[i] != nil {
			t.Fatalf("errs[%d] = %v", i, baseErrs[i])
		}
		want, err := scs[i].TransistorCost()
		if err != nil || base[i] != want {
			t.Fatalf("batch breakdown %d differs from individual evaluation", i)
		}
	}
	for _, workers := range []int{2, 4} {
		bs, errs := eval(workers)
		for i := range scs {
			if bs[i] != base[i] || (errs[i] == nil) != (baseErrs[i] == nil) {
				t.Fatalf("workers=%d diverges at scenario %d", workers, i)
			}
		}
	}
}

func TestEvalBatchCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scs := []Scenario{figure4Scenario(5000, 0.4)}
	if _, _, stop := EvalBatchCtx(ctx, scs); !errors.Is(stop, context.Canceled) {
		t.Fatalf("stop = %v, want context.Canceled", stop)
	}
}

// TestSweepStreamsMatchBufferedSweeps: the streamed chunks, concatenated,
// must be bit-identical to the buffered sweep for every axis and for
// chunk sizes that do and do not divide the grid.
func TestSweepStreamsMatchBufferedSweeps(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	const n = 100
	type sweepFns struct {
		buffered func() ([]SweepPoint, error)
		streamed func(chunk int, emit func([]SweepPoint) error) error
	}
	axes := map[string]sweepFns{
		"sd": {
			buffered: func() ([]SweepPoint, error) { return SweepSdCtx(context.Background(), s, 200, 2000, n) },
			streamed: func(chunk int, emit func([]SweepPoint) error) error {
				return SweepSdStream(context.Background(), s, 200, 2000, n, chunk, emit)
			},
		},
		"wafers": {
			buffered: func() ([]SweepPoint, error) { return SweepVolume(s, 100, 1e5, n) },
			streamed: func(chunk int, emit func([]SweepPoint) error) error {
				return SweepVolumeStream(context.Background(), s, 100, 1e5, n, chunk, emit)
			},
		},
		"yield": {
			buffered: func() ([]SweepPoint, error) { return SweepYieldCtx(context.Background(), s, 0.1, 0.9, n) },
			streamed: func(chunk int, emit func([]SweepPoint) error) error {
				return SweepYieldStream(context.Background(), s, 0.1, 0.9, n, chunk, emit)
			},
		},
	}
	for name, fns := range axes {
		t.Run(name, func(t *testing.T) {
			want, err := fns.buffered()
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{0, 1, 7, 64, 1000} {
				var got []SweepPoint
				calls := 0
				if err := fns.streamed(chunk, func(pts []SweepPoint) error {
					calls++
					got = append(got, pts...)
					return nil
				}); err != nil {
					t.Fatalf("chunk=%d: %v", chunk, err)
				}
				if len(got) != len(want) {
					t.Fatalf("chunk=%d: %d points, want %d", chunk, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("chunk=%d: point %d differs: %+v != %+v", chunk, i, got[i], want[i])
					}
				}
				if chunk == 1 && calls != n {
					t.Fatalf("chunk=1 emitted %d chunks, want %d", calls, n)
				}
			}
		})
	}
}

// TestSweepStreamValidation: domain errors surface before the first emit.
func TestSweepStreamValidation(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	emitted := false
	noEmit := func([]SweepPoint) error { emitted = true; return nil }
	if err := SweepSdStream(context.Background(), s, 50, 2000, 10, 0, noEmit); !errors.Is(err, ErrOutOfDomain) {
		t.Fatalf("lo below pole: err = %v, want ErrOutOfDomain", err)
	}
	if err := SweepYieldStream(context.Background(), s, 0.1, 1.5, 10, 0, noEmit); err == nil {
		t.Fatal("yield above 1 accepted")
	}
	if err := SweepVolumeStream(context.Background(), s, 100, 1e5, 1, 0, noEmit); err == nil {
		t.Fatal("single-point sweep accepted")
	}
	if emitted {
		t.Fatal("emit ran despite validation error")
	}
}

// TestSweepStreamStopsOnEmitErrorAndCancel: an emit error or a context
// cancellation aborts the remaining chunks.
func TestSweepStreamStopsOnEmitError(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	boom := errors.New("consumer gone")
	calls := 0
	err := SweepSdStream(context.Background(), s, 200, 2000, 100, 10, func([]SweepPoint) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want consumer error", err)
	}
	if calls != 1 {
		t.Fatalf("emit ran %d times after failing, want 1", calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	calls = 0
	err = SweepSdStream(ctx, s, 200, 2000, 100, 10, func([]SweepPoint) error {
		calls++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("emit ran %d times after cancellation, want 1", calls)
	}
}
