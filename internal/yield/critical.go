package yield

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// DefectSizeDist is the standard spot-defect size distribution (Stapper
// form): density rising linearly up to the peak size X0, then falling as
// x^{−P} above it,
//
//	f(x) ∝ x        for 0 < x ≤ X0
//	f(x) ∝ X0^{P+1} / x^P   for x > X0
//
// with P > 1 (canonically P = 3). Sizes are in the same length unit the
// caller uses for critical-area curves (this repository uses µm).
type DefectSizeDist struct {
	X0 float64 // peak defect size
	P  float64 // power-law exponent above the peak, > 1
}

// DefaultDefectSizeDist returns the canonical 1/x³ distribution with its
// peak at half the feature size — defects near the resolution limit
// dominate.
func DefaultDefectSizeDist(lambdaUM float64) DefectSizeDist {
	return DefectSizeDist{X0: lambdaUM / 2, P: 3}
}

// Validate reports the first invalid field of d, or nil.
func (d DefectSizeDist) Validate() error {
	if d.X0 <= 0 {
		return fmt.Errorf("yield: defect size peak must be positive, got %v", d.X0)
	}
	if d.P <= 1 {
		return fmt.Errorf("yield: defect size exponent must exceed 1, got %v", d.P)
	}
	return nil
}

// norm returns the normalization constant k so that ∫₀^∞ f = 1 with
// f(x) = k·x on (0, X0] and f(x) = k·X0^{P+1}/x^P beyond.
func (d DefectSizeDist) norm() float64 {
	// ∫₀^{X0} x dx = X0²/2; ∫_{X0}^∞ X0^{P+1} x^{−P} dx = X0²/(P−1).
	return 1 / (d.X0*d.X0/2 + d.X0*d.X0/(d.P-1))
}

// Density evaluates the normalized size density at x (0 for x <= 0).
func (d DefectSizeDist) Density(x float64) float64 {
	if x <= 0 {
		return 0
	}
	k := d.norm()
	if x <= d.X0 {
		return k * x
	}
	return k * math.Pow(d.X0, d.P+1) / math.Pow(x, d.P)
}

// Mean returns the mean defect size, finite only for P > 2.
func (d DefectSizeDist) Mean() (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if d.P <= 2 {
		return 0, fmt.Errorf("yield: mean defect size diverges for P = %v ≤ 2", d.P)
	}
	k := d.norm()
	// ∫₀^{X0} k·x² dx + ∫_{X0}^∞ k·X0^{P+1}·x^{1−P} dx
	return k*d.X0*d.X0*d.X0/3 + k*math.Pow(d.X0, 3)/(d.P-2), nil
}

// SizeSampler draws defect sizes from one DefectSizeDist by
// inverse-transform sampling. The distribution's constants are computed
// once, by DefectSizeDist.Sampler, so a draw costs one uniform and the
// inversion.
type SizeSampler struct {
	k      float64 // normalization, DefectSizeDist.norm
	pBelow float64 // mass below the peak, k·X0²/2
	c      float64 // k·X0^{P+1}/(P−1)
	x0Pow  float64 // X0^{1−P}
	invExp float64 // 1/(1−P)
}

// Sampler prepares d's size sampler. d should be valid (Validate).
func (d DefectSizeDist) Sampler() SizeSampler {
	k := d.norm()
	return SizeSampler{
		k:      k,
		pBelow: k * d.X0 * d.X0 / 2,
		c:      k * math.Pow(d.X0, d.P+1) / (d.P - 1),
		x0Pow:  math.Pow(d.X0, 1-d.P),
		invExp: 1 / (1 - d.P),
	}
}

// Sample draws one defect size.
func (s *SizeSampler) Sample(r *stats.RNG) float64 {
	u := r.Float64()
	if u < s.pBelow {
		// CDF below peak: k·x²/2 = u → x = sqrt(2u/k).
		return math.Sqrt(2 * u / s.k)
	}
	// Above peak: CDF = pBelow + k·X0^{P+1}/(P−1)·(X0^{1−P} − x^{1−P}).
	rest := u - s.pBelow
	inner := s.x0Pow - rest/s.c
	return math.Pow(inner, s.invExp)
}

// AverageCriticalArea integrates a size-dependent critical-area curve
// A_c(x) against the size distribution: Ā = ∫ A_c(x)·f(x) dx over
// [0, xMax]. The layout package supplies A_c for generated layouts; tests
// supply closed-form curves. xMax bounds the integration (beyond a few
// hundred X0 the tail contributes nothing for P ≥ 2).
//
// Layout-derived curves are piecewise linear with kinks at every distinct
// spacing/width, so the quadrature tolerance is scaled to the integrand's
// magnitude rather than fixed absolutely.
func AverageCriticalArea(d DefectSizeDist, ac func(x float64) float64, xMax float64) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if xMax <= 0 {
		return 0, fmt.Errorf("yield: xMax must be positive, got %v", xMax)
	}
	f := func(x float64) float64 { return ac(x) * d.Density(x) }
	// The size density is sharply peaked at X0 with a 1/x^P tail: a single
	// adaptive pass over [0, xMax] can sample straight past the peak and
	// accept a near-zero estimate. Integrate piecewise on geometrically
	// growing panels anchored at the peak, each with a tolerance scaled to
	// the panel's own magnitude.
	var total float64
	edges := []float64{0, d.X0}
	for hi := 4 * d.X0; hi < xMax; hi *= 4 {
		edges = append(edges, hi)
	}
	edges = append(edges, xMax)
	for i := 0; i+1 < len(edges); i++ {
		lo, hi := edges[i], edges[i+1]
		if hi <= lo {
			continue
		}
		mid := 0.5 * (lo + hi)
		scale := math.Max(math.Abs(f(mid)), math.Max(math.Abs(f(lo+1e-9)), math.Abs(f(hi))))
		tol := 1e-9 * scale * (hi - lo)
		if tol < 1e-13 {
			tol = 1e-13
		}
		v, err := stats.Integrate(f, lo, hi, tol)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}
