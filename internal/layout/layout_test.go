package layout

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := Rect{X0: 1, Y0: 2, X1: 4, Y1: 7, Layer: Metal1}
	if !r.Valid() || r.W() != 3 || r.H() != 5 {
		t.Fatalf("rect geometry wrong: %+v", r)
	}
	if (Rect{X0: 1, X1: 1, Y0: 0, Y1: 1}).Valid() {
		t.Fatal("zero-width rect reported valid")
	}
	tr := r.Translate(10, 20)
	if tr.X0 != 11 || tr.Y1 != 27 || tr.Layer != Metal1 {
		t.Fatalf("translate wrong: %+v", tr)
	}
}

func TestLayerString(t *testing.T) {
	names := map[Layer]string{Diffusion: "diffusion", Poly: "poly", Metal1: "metal1", Metal2: "metal2"}
	for l, want := range names {
		if got := l.String(); got != want {
			t.Errorf("Layer(%d).String() = %q, want %q", l, got, want)
		}
	}
}

func TestCellLibraryValid(t *testing.T) {
	cells := append(StdCells(), SRAMCell())
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Errorf("cell %q invalid: %v", c.Name, err)
		}
	}
}

func TestSRAMCellDensity(t *testing.T) {
	// The paper: SRAM s_d in the range of 30.
	c := SRAMCell()
	sd := float64(c.Width*c.Height) / float64(c.Transistors)
	if sd < 25 || sd > 40 {
		t.Fatalf("SRAM cell s_d = %v, want ≈30", sd)
	}
}

func TestPlaceBoundsChecked(t *testing.T) {
	l := &Layout{Name: "t", Width: 20, Height: 20}
	if err := l.Place(Inverter(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if l.Transistors != 2 {
		t.Fatalf("transistors = %d, want 2", l.Transistors)
	}
	if err := l.Place(Inverter(), 15, 0); err == nil {
		t.Fatal("accepted out-of-bounds placement")
	}
	if err := l.Place(Cell{Name: "bad"}, 0, 0); err == nil {
		t.Fatal("accepted invalid cell")
	}
}

func TestSRAMArraySd(t *testing.T) {
	l, err := GenerateSRAMArray(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	sd, err := l.Sd()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-30) > 1 {
		t.Fatalf("SRAM array s_d = %v, want 30 (pitch-perfect tiling)", sd)
	}
	if l.Transistors != 16*16*6 {
		t.Fatalf("transistors = %d", l.Transistors)
	}
}

func TestDatapathSd(t *testing.T) {
	l, err := GenerateDatapath(16, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	sd, err := l.Sd()
	if err != nil {
		t.Fatal(err)
	}
	// Adder tile is ~43 λ²/tx; channels decompress it somewhat.
	if sd < 40 || sd > 80 {
		t.Fatalf("datapath s_d = %v, want 40–80", sd)
	}
}

func TestRandomLogicDecompression(t *testing.T) {
	tight, err := GenerateRandomLogic(RandomLogicConfig{Cells: 400, RowUtil: 0.9, RouteTracks: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Validate(); err != nil {
		t.Fatal(err)
	}
	sparse, err := GenerateRandomLogic(RandomLogicConfig{Cells: 400, RowUtil: 0.35, RouteTracks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.Validate(); err != nil {
		t.Fatal(err)
	}
	sdTight, err := tight.Sd()
	if err != nil {
		t.Fatal(err)
	}
	sdSparse, err := sparse.Sd()
	if err != nil {
		t.Fatal(err)
	}
	if sdSparse <= 1.5*sdTight {
		t.Fatalf("sparse s_d %v not well above tight %v", sdSparse, sdTight)
	}
	// ASIC territory per the paper: well above custom (100+) when sparse.
	if sdSparse < 100 {
		t.Fatalf("sparse ASIC s_d = %v, want > 100", sdSparse)
	}
}

func TestRandomLogicDeterministic(t *testing.T) {
	cfg := RandomLogicConfig{Cells: 100, RowUtil: 0.7, RouteTracks: 4, Seed: 42}
	a, err := GenerateRandomLogic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRandomLogic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Width != b.Width || a.Height != b.Height || len(a.Rects) != len(b.Rects) || a.Transistors != b.Transistors {
		t.Fatal("same seed produced different layouts")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := GenerateSRAMArray(0, 4); err == nil {
		t.Fatal("accepted zero rows")
	}
	if _, err := GenerateDatapath(4, 0, 2); err == nil {
		t.Fatal("accepted zero stages")
	}
	if _, err := GenerateDatapath(4, 2, -1); err == nil {
		t.Fatal("accepted negative channel")
	}
	if _, err := GenerateRandomLogic(RandomLogicConfig{Cells: 0, RowUtil: 0.5}); err == nil {
		t.Fatal("accepted zero cells")
	}
	if _, err := GenerateRandomLogic(RandomLogicConfig{Cells: 10, RowUtil: 1.5}); err == nil {
		t.Fatal("accepted utilization > 1")
	}
	if _, err := GenerateRandomLogic(RandomLogicConfig{Cells: 10, RowUtil: 0.5, RouteTracks: -1}); err == nil {
		t.Fatal("accepted negative tracks")
	}
}

func TestStyleSdOrdering(t *testing.T) {
	sds, err := StyleSd(7)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's customization spectrum: SRAM < datapath < tight ASIC <
	// sparse ASIC.
	if !(sds["sram"] < sds["datapath"] && sds["datapath"] < sds["asic-tight"] && sds["asic-tight"] < sds["asic-sparse"]) {
		t.Fatalf("style ordering violated: %+v", sds)
	}
}

func TestLayoutValidate(t *testing.T) {
	bad := &Layout{Name: "b", Width: 0, Height: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero width")
	}
	bad = &Layout{Name: "b", Width: 10, Height: 10, Rects: []Rect{{X0: 0, Y0: 0, X1: 20, Y1: 5, Layer: Metal1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted escaping rect")
	}
	bad = &Layout{Name: "b", Width: 10, Height: 10, Rects: []Rect{{X0: 0, Y0: 0, X1: 5, Y1: 5, Layer: Layer(9)}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted unknown layer")
	}
}

func TestSdAndAreaCM2(t *testing.T) {
	l := &Layout{Name: "a", Width: 100, Height: 100, Transistors: 50}
	sd, err := l.Sd()
	if err != nil {
		t.Fatal(err)
	}
	if sd != 200 {
		t.Fatalf("s_d = %v, want 200", sd)
	}
	empty := &Layout{Name: "e", Width: 10, Height: 10}
	if _, err := empty.Sd(); err == nil {
		t.Fatal("accepted s_d of empty design")
	}
}

// Property: denser row utilization never increases measured s_d
// (same seed, same cells).
func TestUtilizationMonotoneProperty(t *testing.T) {
	f := func(s uint64) bool {
		lo, err1 := GenerateRandomLogic(RandomLogicConfig{Cells: 150, RowUtil: 0.4, RouteTracks: 4, Seed: s})
		hi, err2 := GenerateRandomLogic(RandomLogicConfig{Cells: 150, RowUtil: 0.95, RouteTracks: 4, Seed: s})
		if err1 != nil || err2 != nil {
			return false
		}
		sdLo, err1 := lo.Sd()
		sdHi, err2 := hi.Sd()
		return err1 == nil && err2 == nil && sdHi < sdLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
