package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestForEachChunkGroupedVisitsEveryChunkOnce(t *testing.T) {
	for _, tc := range []struct{ n, chunkSize, workers, group int }{
		{100, 7, 1, 1},
		{100, 7, 4, 3},
		{100, 7, 4, 1 << 20}, // group far beyond the chunk count
		{100, 7, 2, 0},       // non-positive group means 1
		{1, 7, 4, 5},
		{4096, 1, 8, 64},
	} {
		chunks := Chunks(tc.n, tc.chunkSize)
		visits := make([]atomic.Int64, chunks)
		covered := make([]atomic.Int64, tc.n)
		err := forEachChunkGrouped(context.Background(), tc.n, tc.chunkSize, tc.workers, tc.group, nil, func(c, lo, hi int) error {
			visits[c].Add(1)
			if lo != c*tc.chunkSize || hi <= lo || hi > tc.n {
				return fmt.Errorf("chunk %d got bounds [%d, %d)", c, lo, hi)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for c := range visits {
			if v := visits[c].Load(); v != 1 {
				t.Fatalf("%+v: chunk %d visited %d times", tc, c, v)
			}
		}
		for i := range covered {
			if v := covered[i].Load(); v != 1 {
				t.Fatalf("%+v: index %d covered %d times", tc, i, v)
			}
		}
	}
}

// The grouped scheduler's core guarantee: group size changes which
// goroutine runs a chunk, never what the chunk computes. Index-addressed
// output must be byte-identical across workers × group sizes.
func TestForEachChunkGroupedDeterministicAcrossGroups(t *testing.T) {
	const n, chunkSize = 1000, 16
	eval := func(workers, group int) []float64 {
		out := make([]float64, n)
		err := forEachChunkGrouped(context.Background(), n, chunkSize, workers, group, nil, func(c, lo, hi int) error {
			acc := float64(c)
			for i := lo; i < hi; i++ {
				acc = acc*1.0000001 + float64(i)
				out[i] = acc
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := eval(1, 1)
	for _, workers := range []int{1, 2, 4} {
		for _, group := range []int{1, 4, 1 << 20} {
			got := eval(workers, group)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d group=%d: out[%d] = %v, want %v", workers, group, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestForEachChunkGroupedStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	err := forEachChunkGrouped(context.Background(), 100, 5, 2, 4, nil, func(c, lo, hi int) error {
		if c == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestChunkTunerGrouping(t *testing.T) {
	var tn ChunkTuner
	// Cold tuner with a cold histogram may seed from process-wide data;
	// whatever it returns must be a sane group for the job shape.
	if g := tn.Group(100, 4); g < 1 || g > 100/(4*tunerBalance) && g != 1 {
		t.Fatalf("cold group = %d", g)
	}
	// Heavy chunks (10ms each): no grouping beyond 1.
	tn.note(1, 10e-3)
	if g := tn.Group(1000, 1); g != 1 {
		t.Fatalf("heavy chunks grouped to %d, want 1", g)
	}
	// Light chunks (1µs each): target/per = 500, capped by load balance.
	var light ChunkTuner
	light.note(1000, 1e-3)
	if per := light.PerUnitSeconds(); per <= 0 {
		t.Fatalf("per-unit estimate = %v", per)
	}
	g := light.Group(100000, 2)
	want := 500 // tunerTargetSeconds / 1µs
	if g != want {
		t.Fatalf("light group = %d, want %d", g, want)
	}
	// Small jobs stay balanced: never fewer than tunerBalance tasks/worker.
	if g := light.Group(64, 2); g != 64/(2*tunerBalance) {
		t.Fatalf("balanced group = %d, want %d", g, 64/(2*tunerBalance))
	}
	// Single chunk: nothing to group.
	if g := light.Group(1, 8); g != 1 {
		t.Fatalf("single-chunk group = %d", g)
	}
}

func TestChunkTunerEWMAConverges(t *testing.T) {
	var tn ChunkTuner
	tn.note(1, 1e-6)
	for i := 0; i < 200; i++ {
		tn.note(1, 1e-3)
	}
	per := tn.PerUnitSeconds()
	if per < 0.9e-3 || per > 1.1e-3 {
		t.Fatalf("EWMA did not converge to the new regime: %v", per)
	}
}

func TestForEachChunkTunedRecordsSpanAttributes(t *testing.T) {
	tracer := obs.NewTracer(4, nil)
	ctx, root := tracer.StartRoot(context.Background(), "", "test.root")
	var tn ChunkTuner
	tn.note(1, 10e-3) // heavy chunks: expect group 1
	err := ForEachChunkTuned(ctx, 64, 8, 2, &tn, func(c, lo, hi int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	rec, ok := tracer.Lookup(root.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	found := false
	for _, sp := range rec.Spans {
		if sp.Name != "parallel.chunks" {
			continue
		}
		found = true
		want := map[string]string{"chunk_size": "8", "group": "1", "chunks": "8"}
		for k, v := range want {
			if sp.Attrs[k] != v {
				t.Fatalf("span attr %s = %q, want %q (attrs: %v)", k, sp.Attrs[k], v, sp.Attrs)
			}
		}
	}
	if !found {
		t.Fatal("no parallel.chunks span recorded")
	}
}

func TestMapAllTunedMatchesMapAll(t *testing.T) {
	const n = 500
	boom := errors.New("bad item")
	fn := func(i int) (int, error) {
		if i%17 == 0 {
			return 0, boom
		}
		return i * i, nil
	}
	refOut, refErrs, stop := mapAll(context.Background(), n, 2, nil, fn)
	if stop != nil {
		t.Fatal(stop)
	}
	var tn ChunkTuner
	tn.note(100, 1e-4) // light items: force real grouping
	if g := tn.Group(n, 4); g <= 1 {
		t.Fatalf("tuner groups %d items per task, want real grouping", g)
	}
	for _, workers := range []int{1, 2, 4} {
		out, errs, stop := mapAll(context.Background(), n, workers, &tn, fn)
		if stop != nil {
			t.Fatal(stop)
		}
		for i := range refOut {
			if out[i] != refOut[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], refOut[i])
			}
			if (errs[i] == nil) != (refErrs[i] == nil) {
				t.Fatalf("workers=%d: errs[%d] = %v, want %v", workers, i, errs[i], refErrs[i])
			}
		}
	}
}

func TestMapAllTunedContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var tn ChunkTuner
	tn.note(100, 1e-4)
	if _, _, stop := mapAll(ctx, 100, 2, &tn, func(i int) (int, error) { return i, nil }); !errors.Is(stop, context.Canceled) {
		t.Fatalf("dead context: stop = %v, want context.Canceled", stop)
	}
}
