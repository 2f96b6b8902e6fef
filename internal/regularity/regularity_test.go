package regularity

import (
	"testing"

	"repro/internal/layout"
)

func TestScanValidation(t *testing.T) {
	l, err := layout.GenerateSRAMArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScanner().scan(l, 0); err == nil {
		t.Fatal("accepted zero pitch")
	}
	bad := &layout.Layout{Name: "b", Width: 0, Height: 1}
	if _, err := NewScanner().scan(bad, 10); err == nil {
		t.Fatal("accepted invalid layout")
	}
}

func TestScanWindowCount(t *testing.T) {
	l := &layout.Layout{Name: "t", Width: 30, Height: 20, Transistors: 1}
	pats, err := NewScanner().scan(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 6 { // 3 × 2
		t.Fatalf("windows = %d, want 6", len(pats))
	}
	for _, p := range pats {
		if !p.Empty() {
			t.Fatal("empty layout produced non-empty pattern")
		}
	}
	// Partial edge windows are still scanned: 25×25 at pitch 10 → 3×3.
	l = &layout.Layout{Name: "t2", Width: 25, Height: 25, Transistors: 1}
	pats, err = NewScanner().scan(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 9 {
		t.Fatalf("windows = %d, want 9", len(pats))
	}
}

func TestSRAMArrayPerfectlyRegular(t *testing.T) {
	// 20 rows × 16 cols of the 15×12 cell give a 240×240 array — an exact
	// multiple of the 60 = lcm(15, 12) scan pitch, so every window (edge
	// included) is identical.
	l, err := layout.GenerateSRAMArray(20, 16)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(l, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UniquePatterns != 1 {
		t.Fatalf("SRAM array at aligned pitch has %d unique patterns, want 1", rep.UniquePatterns)
	}
	// Regularity is capped at 1 − 1/windows; with a 4×4 window grid the
	// perfect score is 15/16.
	if want := 1 - 1/float64(rep.NonEmpty); rep.Regularity < want-1e-9 {
		t.Fatalf("SRAM regularity = %v, want %v (perfect for %d windows)", rep.Regularity, want, rep.NonEmpty)
	}
	if rep.MaxRepeat != rep.NonEmpty {
		t.Fatalf("max repeat %d != non-empty windows %d", rep.MaxRepeat, rep.NonEmpty)
	}
}

func TestRandomLogicLessRegularThanSRAM(t *testing.T) {
	sram, err := layout.GenerateSRAMArray(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	asic, err := layout.GenerateRandomLogic(layout.RandomLogicConfig{
		Cells: 300, RowUtil: 0.6, RouteTracks: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	repS, err := Analyze(sram, 60)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := Analyze(asic, 60)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Regularity >= repS.Regularity {
		t.Fatalf("ASIC regularity %v not below SRAM %v", repA.Regularity, repS.Regularity)
	}
	if repA.UniquePatterns <= repS.UniquePatterns {
		t.Fatalf("ASIC unique patterns %d not above SRAM %d", repA.UniquePatterns, repS.UniquePatterns)
	}
}

func TestScanDeterministic(t *testing.T) {
	l, err := layout.GenerateRandomLogic(layout.RandomLogicConfig{
		Cells: 100, RowUtil: 0.7, RouteTracks: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewScanner().scan(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScanner().scan(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("scan lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pattern %d differs between identical scans", i)
		}
	}
}

func TestTranslationInvariance(t *testing.T) {
	// The same geometry at the same in-window offset hashes identically
	// wherever the window sits.
	mk := func(offset int) *layout.Layout {
		l := &layout.Layout{Name: "t", Width: 200, Height: 20, Transistors: 1}
		l.Rects = append(l.Rects, layout.Rect{
			X0: offset + 3, Y0: 5, X1: offset + 8, Y1: 9, Layer: layout.Metal1,
		})
		return l
	}
	// Rect in window 0 at x=3 vs identical rect in window 5 at x=3.
	a, err := NewScanner().scan(mk(0), 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScanner().scan(mk(100), 20)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[5] {
		t.Fatal("identical window content hashed differently after translation")
	}
}

func TestBoundarySpanningClip(t *testing.T) {
	// A rect spanning two windows contributes its clipped part to each.
	l := &layout.Layout{Name: "span", Width: 40, Height: 20, Transistors: 1}
	l.Rects = append(l.Rects, layout.Rect{X0: 15, Y0: 5, X1: 25, Y1: 9, Layer: layout.Metal1})
	pats, err := NewScanner().scan(l, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pats[0].Empty() || pats[1].Empty() {
		t.Fatal("spanning rect missing from one of its windows")
	}
	if pats[0] == pats[1] {
		t.Fatal("differently-clipped halves hashed identically")
	}
}

func TestAnalyzeEmptyLayout(t *testing.T) {
	l := &layout.Layout{Name: "empty", Width: 100, Height: 100, Transistors: 1}
	rep, err := Analyze(l, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonEmpty != 0 || rep.UniquePatterns != 0 || rep.Regularity != 0 {
		t.Fatalf("empty layout report = %+v", rep)
	}
}

func TestBestPitchPrefersAligned(t *testing.T) {
	l, err := layout.GenerateSRAMArray(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	// 60 divides both cell dimensions (15, 12); 37 divides neither.
	best, err := BestPitch(l, []int{37, 60})
	if err != nil {
		t.Fatal(err)
	}
	if best.Pitch != 60 {
		t.Fatalf("best pitch = %d, want 60 (cell-aligned)", best.Pitch)
	}
	if _, err := BestPitch(l, nil); err == nil {
		t.Fatal("accepted empty candidate list")
	}
}

func TestPredictionErrorModel(t *testing.T) {
	m := DefaultPredictionErrorModel()
	e0, err := m.Error(0)
	if err != nil {
		t.Fatal(err)
	}
	if e0 != m.Baseline {
		t.Fatalf("error at reg=0 is %v, want baseline %v", e0, m.Baseline)
	}
	e1, err := m.Error(1)
	if err != nil {
		t.Fatal(err)
	}
	if e1 >= e0 {
		t.Fatal("full regularity did not reduce error")
	}
	// Clamping.
	eNeg, err := m.Error(-5)
	if err != nil {
		t.Fatal(err)
	}
	if eNeg != e0 {
		t.Fatal("negative regularity not clamped")
	}
	eBig, err := m.Error(5)
	if err != nil {
		t.Fatal(err)
	}
	if eBig != e1 {
		t.Fatal("oversized regularity not clamped")
	}
	// Monotone decreasing in regularity.
	prev := 1e9
	for _, r := range []float64{0, 0.25, 0.5, 0.75, 1} {
		e, err := m.Error(r)
		if err != nil {
			t.Fatal(err)
		}
		if e >= prev {
			t.Fatalf("error not decreasing at reg=%v", r)
		}
		prev = e
	}
}

func TestPredictionErrorModelValidation(t *testing.T) {
	if _, err := (PredictionErrorModel{Baseline: 0, ReuseEfficiency: 0.5}).Error(0.5); err == nil {
		t.Fatal("accepted zero baseline")
	}
	if _, err := (PredictionErrorModel{Baseline: 0.3, ReuseEfficiency: 1.5}).Error(0.5); err == nil {
		t.Fatal("accepted reuse efficiency > 1")
	}
}
