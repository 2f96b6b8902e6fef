package layout

import (
	"math"
	"testing"
)

// twoWires builds a layout with two parallel metal1 wires of length 100
// at spacing 4, the textbook shorts-critical-area case.
func twoWires(spacing int) *Layout {
	return &Layout{
		Name: "wires", Width: 120, Height: 40, Transistors: 1,
		Rects: []Rect{
			{X0: 10, Y0: 10, X1: 110, Y1: 12, Layer: Metal1},
			{X0: 10, Y0: 12 + spacing, X1: 110, Y1: 14 + spacing, Layer: Metal1},
		},
	}
}

func TestCriticalAreaTwoWires(t *testing.T) {
	l := twoWires(4)
	// Defect smaller than the spacing: no short possible.
	a, err := CriticalArea(l, Metal1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Fatalf("defect below spacing produced critical area %v", a)
	}
	// Defect of size 6 over spacing 4: strip = overlap 100 × (6−4) = 200.
	a, err = CriticalArea(l, Metal1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-200) > 1e-9 {
		t.Fatalf("critical area = %v, want 200", a)
	}
	// Wrong layer: nothing there.
	a, err = CriticalArea(l, Metal2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Fatalf("empty layer critical area = %v", a)
	}
}

func TestCriticalAreaVerticalPairs(t *testing.T) {
	// Two wires side by side (gap along x).
	l := &Layout{
		Name: "vwires", Width: 40, Height: 120, Transistors: 1,
		Rects: []Rect{
			{X0: 10, Y0: 10, X1: 12, Y1: 110, Layer: Metal1},
			{X0: 16, Y0: 10, X1: 18, Y1: 110, Layer: Metal1},
		},
	}
	a, err := CriticalArea(l, Metal1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-200) > 1e-9 {
		t.Fatalf("vertical-pair critical area = %v, want 200", a)
	}
}

func TestCriticalAreaGrowsWithDefectSize(t *testing.T) {
	l, err := GenerateRandomLogic(RandomLogicConfig{Cells: 100, RowUtil: 0.8, RouteTracks: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, x := range []float64{1, 2, 4, 8, 16} {
		a, err := CriticalArea(l, Metal2, x)
		if err != nil {
			t.Fatal(err)
		}
		if a < prev {
			t.Fatalf("critical area not monotone at defect size %v", x)
		}
		prev = a
	}
}

func TestCriticalAreaRejectsNegativeSize(t *testing.T) {
	if _, err := CriticalArea(twoWires(4), Metal1, -1); err == nil {
		t.Fatal("accepted negative defect size")
	}
	if _, err := OpenCriticalArea(twoWires(4), Metal1, -1); err == nil {
		t.Fatal("accepted negative defect size")
	}
}

func TestOpenCriticalArea(t *testing.T) {
	l := twoWires(4) // two wires of width 2, length 100
	// Defect narrower than the wire: no open.
	a, err := OpenCriticalArea(l, Metal1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Fatalf("narrow defect produced open area %v", a)
	}
	// Defect of 5 over width 2: per wire 100 × 3 = 300; two wires = 600.
	a, err = OpenCriticalArea(l, Metal1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-600) > 1e-9 {
		t.Fatalf("open area = %v, want 600", a)
	}
}

func TestCriticalAreaCurveAndFraction(t *testing.T) {
	l := twoWires(4)
	ev, err := NewCritEvaluator(l, Metal1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, x := range []float64{1, 3, 5, 8} {
		a := ev.Area(x)
		if a < prev {
			t.Fatal("combined curve not monotone")
		}
		prev = a
	}
	f := critFraction(t, l, 6)
	want := (200.0 + 2*100*4) / float64(120*40) // shorts + opens
	if math.Abs(f-want) > 1e-9 {
		t.Fatalf("critical fraction = %v, want %v", f, want)
	}
}

// critFraction returns the combined (shorts + opens) Metal1 critical area
// at defect size x as a fraction of the layout bounding box.
func critFraction(t *testing.T, l *Layout, x float64) float64 {
	t.Helper()
	ev, err := NewCritEvaluator(l, Metal1)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Area(x) / float64(l.AreaLambda2())
}

func TestDenserLayoutHasLargerCriticalFraction(t *testing.T) {
	// Design density made measurable: at a fixed defect size, a tighter
	// layout exposes more shorts-critical area per unit area than a sparse
	// one.
	tight := twoWires(2)
	sparse := twoWires(10)
	ft, fs := critFraction(t, tight, 6), critFraction(t, sparse, 6)
	if ft <= fs {
		t.Fatalf("tight fraction %v not above sparse %v", ft, fs)
	}
}
