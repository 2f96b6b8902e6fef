package yield

import (
	"fmt"
	"math"
)

// Redundancy models repairable structures (ref [32], "Accurate Estimation
// of Defect-Related Yield Loss in Reconfigurable VLSI Circuits"): a
// regular fabric with spare units survives up to Spares fatal defects in
// its repairable region. This is the yield side of the §3.2 regularity
// argument — regular structures are not only predictable, they are
// repairable, so their effective yield far exceeds the raw Poisson value.
type Redundancy struct {
	Spares int // fatal defects the structure can absorb, >= 0
}

// Validate reports the first invalid field of r, or nil.
func (r Redundancy) Validate() error {
	if r.Spares < 0 {
		return fmt.Errorf("yield: redundancy: spares must be non-negative, got %d", r.Spares)
	}
	return nil
}

// Yield returns the probability that a structure with mean fatal-defect
// count lambda survives after repair: P(defects ≤ Spares) under Poisson
// statistics,
//
//	Y = e^{−λ} Σ_{k=0}^{S} λ^k / k!
func (r Redundancy) Yield(lambda float64) (float64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if lambda < 0 {
		return 0, fmt.Errorf("yield: redundancy: lambda must be non-negative, got %v", lambda)
	}
	if lambda == 0 {
		return 1, nil
	}
	term := math.Exp(-lambda) // k = 0 term
	sum := term
	for k := 1; k <= r.Spares; k++ {
		term *= lambda / float64(k)
		sum += term
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// SparesForYield returns the smallest spare count that reaches the target
// yield at the given lambda under Poisson statistics. It returns an error
// for targets outside (0, 1) or when more than maxSpares would be needed.
func SparesForYield(lambda, target float64, maxSpares int) (int, error) {
	if !(target > 0 && target < 1) {
		return 0, fmt.Errorf("yield: redundancy: target must be in (0,1), got %v", target)
	}
	if lambda < 0 {
		return 0, fmt.Errorf("yield: redundancy: lambda must be non-negative, got %v", lambda)
	}
	if maxSpares < 0 {
		return 0, fmt.Errorf("yield: redundancy: maxSpares must be non-negative, got %d", maxSpares)
	}
	for s := 0; s <= maxSpares; s++ {
		y, err := Redundancy{Spares: s}.Yield(lambda)
		if err != nil {
			return 0, err
		}
		if y >= target {
			return s, nil
		}
	}
	return 0, fmt.Errorf("yield: redundancy: target %v unreachable within %d spares at λ=%v", target, maxSpares, lambda)
}

// RepairEconomics weighs the cost of carrying spare area against the
// yield it buys. Cost per good die scales as area/yield: without repair
// it is A/Y0 with Y0 = Poisson(λ); with repair the die grows to A·(1+f)
// (collecting proportionally more defects, λ·(1+f)) but survives up to
// the spare count. The returned multiplier is
//
//	[(1+f)/Yr] / [1/Y0] = (1+f)·Y0/Yr
//
// — below 1 exactly when repair pays.
func RepairEconomics(lambda float64, spares int, spareAreaFraction float64) (costMultiplier float64, err error) {
	if spareAreaFraction < 0 {
		return 0, fmt.Errorf("yield: redundancy: spare area fraction must be non-negative, got %v", spareAreaFraction)
	}
	if lambda < 0 {
		return 0, fmt.Errorf("yield: redundancy: lambda must be non-negative, got %v", lambda)
	}
	repaired, err := Redundancy{Spares: spares}.Yield(lambda * (1 + spareAreaFraction))
	if err != nil {
		return 0, err
	}
	if repaired <= 0 {
		return 0, fmt.Errorf("yield: redundancy: repaired yield underflow")
	}
	y0 := Poisson{}.Yield(lambda)
	return (1 + spareAreaFraction) * y0 / repaired, nil
}
