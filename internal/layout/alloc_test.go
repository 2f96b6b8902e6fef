package layout

import (
	"testing"
)

// The zero-/low-allocation contracts of the geometry kernels, pinned with
// testing.AllocsPerRun so a regression in the scratch-reuse machinery is
// a test failure, not a silent GC-pressure creep.

func allocTestLayout(t testing.TB) *Layout {
	t.Helper()
	l, err := GenerateRandomLogic(RandomLogicConfig{Cells: 120, RowUtil: 0.7, RouteTracks: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCritEvaluatorZeroAllocEval(t *testing.T) {
	l := allocTestLayout(t)
	ev, err := NewCritEvaluator(l, Metal1)
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += ev.ShortArea(4) + ev.OpenArea(4) + ev.Area(2.5)
	})
	if allocs != 0 {
		t.Fatalf("CritEvaluator eval allocates %v per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("kernel returned nothing")
	}
}

func TestCritEvaluatorResetReusesBuffers(t *testing.T) {
	l := allocTestLayout(t)
	ev, err := NewCritEvaluator(l, Metal1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ev.Reset(l, Metal1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("same-geometry Reset allocates %v per run, want 0", allocs)
	}
}

func TestCritEvaluatorMatchesPublicKernels(t *testing.T) {
	l := allocTestLayout(t)
	ev, err := NewCritEvaluator(l, Metal1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.5, 2, 4, 9.5, 30} {
		s, err := CriticalArea(l, Metal1, x)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.ShortArea(x); got != s {
			t.Fatalf("x=%v: evaluator shorts %v != CriticalArea %v", x, got, s)
		}
		o, err := OpenCriticalArea(l, Metal1, x)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.OpenArea(x); got != o {
			t.Fatalf("x=%v: evaluator opens %v != OpenCriticalArea %v", x, got, o)
		}
	}
}

func TestContentHashGeometryOnly(t *testing.T) {
	a := allocTestLayout(t)
	b := allocTestLayout(t)
	if a.ContentHash() != b.ContentHash() {
		t.Fatal("identical geometry hashes differently")
	}
	b.Name = "renamed"
	if a.ContentHash() != b.ContentHash() {
		t.Fatal("Name leaked into the content hash")
	}
	b.Rects[0].X1++
	if a.ContentHash() == b.ContentHash() {
		t.Fatal("geometry change did not change the hash")
	}
	b.Rects[0].X1--
	b.Transistors++
	if a.ContentHash() == b.ContentHash() {
		t.Fatal("transistor count change did not change the hash")
	}
}
