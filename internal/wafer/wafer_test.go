package wafer

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWaferValidate(t *testing.T) {
	if err := Wafer200.Validate(); err != nil {
		t.Fatalf("standard 200mm wafer rejected: %v", err)
	}
	bad := []Wafer{
		{DiameterMM: 0},
		{DiameterMM: 200, EdgeExclusionMM: -1},
		{DiameterMM: 10, EdgeExclusionMM: 5},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid wafer %+v accepted", i, w)
		}
	}
}

func TestWaferAreas(t *testing.T) {
	// 200 mm wafer, 3 mm edge exclusion: usable r = 9.7 cm.
	want := math.Pi * 9.7 * 9.7
	if got := Wafer200.UsableAreaCM2(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("usable area = %v, want %v", got, want)
	}
}

func TestSquareDie(t *testing.T) {
	d := SquareDie(1.0) // 1 cm² → 10×10 mm
	if math.Abs(d.WidthMM-10) > 1e-12 || math.Abs(d.HeightMM-10) > 1e-12 {
		t.Fatalf("square die = %v×%v mm, want 10×10", d.WidthMM, d.HeightMM)
	}
	if math.Abs(d.AreaCM2()-1) > 1e-12 {
		t.Fatalf("area round trip = %v", d.AreaCM2())
	}
}

func TestDieValidate(t *testing.T) {
	bad := []Die{
		{WidthMM: 0, HeightMM: 10},
		{WidthMM: 10, HeightMM: -1},
		{WidthMM: 10, HeightMM: 10, ScribeMM: -0.1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid die %+v accepted", i, d)
		}
	}
}

func TestGrossDieKnownSmallCase(t *testing.T) {
	// A 100 mm usable-diameter wafer (r=50) with 20 mm square die, no
	// scribe: by direct enumeration a 4-wide cross pattern fits 12
	// (rows of 2/4/4/2 when the grid is face-centered... verify against a
	// brute-force fine phase sweep instead of a hand count).
	w := Wafer{DiameterMM: 106, EdgeExclusionMM: 3}
	d := Die{WidthMM: 20, HeightMM: 20}
	n, err := GrossDie(w, d)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force with a very fine phase sweep as ground truth.
	best := 0
	r := w.UsableRadiusMM()
	for ix := 0; ix < 64; ix++ {
		for iy := 0; iy < 64; iy++ {
			ox := float64(ix) / 64 * 20
			oy := float64(iy) / 64 * 20
			if c := countGrid(r, d, 20, 20, ox, oy); c > best {
				best = c
			}
		}
	}
	if n != best {
		t.Fatalf("GrossDie = %d, fine sweep says %d", n, best)
	}
	if n < 8 || n > 21 {
		t.Fatalf("GrossDie = %d outside sane bounds for 20mm die on 100mm usable", n)
	}
}

func TestGrossDieHugeDie(t *testing.T) {
	n, err := GrossDie(Wafer200, Die{WidthMM: 500, HeightMM: 500})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("500mm die on 200mm wafer = %d, want 0", n)
	}
}

func TestGrossDieScribeReducesCount(t *testing.T) {
	d0 := Die{WidthMM: 10, HeightMM: 10, ScribeMM: 0}
	d1 := Die{WidthMM: 10, HeightMM: 10, ScribeMM: 1}
	n0, err := GrossDie(Wafer200, d0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := GrossDie(Wafer200, d1)
	if err != nil {
		t.Fatal(err)
	}
	if n1 >= n0 {
		t.Fatalf("scribe lane did not reduce count: %d vs %d", n1, n0)
	}
}

func TestGrossDie300Beats200(t *testing.T) {
	d := SquareDie(1.0)
	n200, err := GrossDie(Wafer200, d)
	if err != nil {
		t.Fatal(err)
	}
	n300, err := GrossDie(Wafer300, d)
	if err != nil {
		t.Fatal(err)
	}
	// 300 mm has 2.25x the area; edge effects make the gain bigger.
	if float64(n300) < 2.1*float64(n200) {
		t.Fatalf("300mm/200mm ratio = %v, want > 2.1 (n200=%d n300=%d)", float64(n300)/float64(n200), n200, n300)
	}
}

func TestApproximationsBracketExact(t *testing.T) {
	for _, areaCM2 := range []float64{0.25, 0.5, 1.0, 2.0, 4.0} {
		d := SquareDie(areaCM2)
		exact, err := GrossDie(Wafer200, d)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := GrossDieApprox(Wafer200, d, AreaRatio)
		if err != nil {
			t.Fatal(err)
		}
		corrected, err := GrossDieApprox(Wafer200, d, EdgeCorrected)
		if err != nil {
			t.Fatal(err)
		}
		dehoff, err := GrossDieApprox(Wafer200, d, DeHoff)
		if err != nil {
			t.Fatal(err)
		}
		if naive < exact {
			t.Errorf("area %v: naive %d below exact %d — the area ratio must overestimate", areaCM2, naive, exact)
		}
		// Edge-corrected and DeHoff should be within ~20%% of exact.
		for _, a := range []struct {
			name string
			n    int
		}{{"edge-corrected", corrected}, {"dehoff", dehoff}} {
			relErr := math.Abs(float64(a.n-exact)) / float64(exact)
			if relErr > 0.25 {
				t.Errorf("area %v: %s = %d vs exact %d (err %.0f%%)", areaCM2, a.name, a.n, exact, relErr*100)
			}
		}
	}
}

func TestGrossDieApproxUnknown(t *testing.T) {
	if _, err := GrossDieApprox(Wafer200, SquareDie(1), Approximation(99)); err == nil {
		t.Fatal("accepted unknown approximation")
	}
}

func TestApproximationString(t *testing.T) {
	for a, want := range map[Approximation]string{
		AreaRatio: "area-ratio", EdgeCorrected: "edge-corrected", DeHoff: "dehoff",
	} {
		if got := a.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(a), got, want)
		}
	}
}

func TestDiePerWafer(t *testing.T) {
	n, err := GrossDie(Wafer200, SquareDie(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// ~314 cm² full area, 1 cm² die: between 200 and 300 whole die fit.
	if n < 200 || n > 300 {
		t.Fatalf("1 cm² die on 200 mm wafer = %d, want 200–300", n)
	}
	if _, err := GrossDie(Wafer200, SquareDie(0)); err == nil {
		t.Fatal("accepted zero die area")
	}
}

// Property: gross die never exceeds usable-area / die-area, and shrinking
// the die never decreases the count.
func TestGrossDieBoundsProperty(t *testing.T) {
	f := func(a uint16) bool {
		areaCM2 := 0.2 + float64(a%400)/100 // [0.2, 4.2)
		d := SquareDie(areaCM2)
		n, err := GrossDie(Wafer200, d)
		if err != nil {
			return false
		}
		if float64(n)*d.AreaCM2() > Wafer200.UsableAreaCM2() {
			return false
		}
		smaller := SquareDie(areaCM2 / 2)
		n2, err := GrossDie(Wafer200, smaller)
		return err == nil && n2 >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
