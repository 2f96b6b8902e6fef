package wafer

import (
	"fmt"
	"math"
)

// GrossDie computes the exact number of whole die that fit in the usable
// circle by simulating the rectangular placement grid. The grid is swept
// over a range of phase offsets (the alignment of the grid relative to the
// wafer center is a free parameter steppers optimize) and the best count is
// returned. A die counts only if all four corners lie inside the usable
// radius.
func GrossDie(w Wafer, d Die) (int, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	r := w.UsableRadiusMM()
	px, py := d.pitch()
	if d.WidthMM > 2*r || d.HeightMM > 2*r {
		return 0, nil
	}
	best := 0
	// Sweep grid phases. A handful of phases per axis captures the
	// centered/offset optima; 8×8 is exhaustive enough that finer sweeps
	// change nothing for realistic die sizes (verified in tests).
	const phases = 8
	for ix := 0; ix < phases; ix++ {
		ox := float64(ix) / phases * px
		for iy := 0; iy < phases; iy++ {
			oy := float64(iy) / phases * py
			if n := countGrid(r, d, px, py, ox, oy); n > best {
				best = n
			}
		}
	}
	return best, nil
}

// countGrid counts whole die on a grid with the given pitch and phase.
func countGrid(r float64, d Die, px, py, ox, oy float64) int {
	// Candidate columns cover [-r, r].
	iMin := int(math.Floor((-r - ox) / px))
	iMax := int(math.Ceil((r - ox) / px))
	count := 0
	r2 := r * r
	inside := func(x, y float64) bool { return x*x+y*y <= r2 }
	for i := iMin; i <= iMax; i++ {
		x0 := ox + float64(i)*px
		x1 := x0 + d.WidthMM
		jMin := int(math.Floor((-r - oy) / py))
		jMax := int(math.Ceil((r - oy) / py))
		for j := jMin; j <= jMax; j++ {
			y0 := oy + float64(j)*py
			y1 := y0 + d.HeightMM
			if inside(x0, y0) && inside(x1, y0) && inside(x0, y1) && inside(x1, y1) {
				count++
			}
		}
	}
	return count
}

// Approximation identifies one of the standard analytic gross-die formulas.
type Approximation int

const (
	// AreaRatio is the naive πr²/A estimate ignoring edge loss.
	AreaRatio Approximation = iota
	// EdgeCorrected subtracts the circumference band: πr²/A − πd_w/√(2A).
	// This is the formula most cost-of-ownership models use.
	EdgeCorrected
	// DeHoff uses the π(r−√(A/π))²/A "shrunken radius" form.
	DeHoff
)

// String returns the formula name.
func (a Approximation) String() string {
	switch a {
	case AreaRatio:
		return "area-ratio"
	case EdgeCorrected:
		return "edge-corrected"
	case DeHoff:
		return "dehoff"
	default:
		return fmt.Sprintf("approximation(%d)", int(a))
	}
}

// GrossDieApprox evaluates the chosen analytic approximation. The die's
// scribe lane is folded into its effective area. Results are truncated
// toward zero and never negative.
func GrossDieApprox(w Wafer, d Die, a Approximation) (int, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	r := w.UsableRadiusMM()
	px, py := d.pitch()
	area := px * py // effective area incl. scribe, mm²
	var n float64
	switch a {
	case AreaRatio:
		n = math.Pi * r * r / area
	case EdgeCorrected:
		n = math.Pi*r*r/area - math.Pi*2*r/math.Sqrt(2*area)
	case DeHoff:
		side := math.Sqrt(area / math.Pi)
		eff := r - side
		if eff < 0 {
			eff = 0
		}
		n = math.Pi * eff * eff / area
	default:
		return 0, fmt.Errorf("wafer: unknown approximation %d", int(a))
	}
	if n < 0 {
		n = 0
	}
	return int(n), nil
}
