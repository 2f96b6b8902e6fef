package fab

import (
	"fmt"
	"math"
)

// ExperienceCurve is the classic manufacturing learning curve: unit cost
// falls by a fixed ratio with every doubling of cumulative output,
//
//	c(n) = FirstUnitCost · n^{log2(LearningRate)}
//
// with LearningRate in (0, 1] (0.9 = "90% curve": each doubling cuts cost
// to 90%). Reference [30] uses volume as a first-order wafer-cost driver;
// the experience curve is the standard functional form for it.
type ExperienceCurve struct {
	FirstUnitCost float64
	LearningRate  float64
}

// Validate reports the first invalid field of c, or nil.
func (c ExperienceCurve) Validate() error {
	if c.FirstUnitCost <= 0 {
		return fmt.Errorf("fab: experience curve first-unit cost must be positive, got %v", c.FirstUnitCost)
	}
	if !(c.LearningRate > 0 && c.LearningRate <= 1) {
		return fmt.Errorf("fab: learning rate must be in (0,1], got %v", c.LearningRate)
	}
	return nil
}

// UnitCost returns the cost of the n-th unit (n >= 1).
func (c ExperienceCurve) UnitCost(n float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("fab: unit index must be >= 1, got %v", n)
	}
	return c.FirstUnitCost * math.Pow(n, math.Log2(c.LearningRate)), nil
}

// AverageCost returns the average unit cost over the first n units, via
// the continuous approximation ∫₁ⁿ c(x) dx / n (exact closed form). The
// integral undercounts the first unit, so at small n it falls below the
// n-th unit's cost, which no average of non-increasing unit costs can;
// there AverageCost returns UnitCost(n).
func (c ExperienceCurve) AverageCost(n float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("fab: unit count must be >= 1, got %v", n)
	}
	b := math.Log2(c.LearningRate)
	if n == 1 {
		return c.FirstUnitCost, nil
	}
	var avg float64
	if math.Abs(b+1) < 1e-12 {
		avg = c.FirstUnitCost * math.Log(n) / n
	} else {
		avg = c.FirstUnitCost * (math.Pow(n, b+1) - 1) / ((b + 1) * n)
	}
	return math.Max(avg, c.FirstUnitCost*math.Pow(n, b)), nil
}

// MatureWaferCost combines the fabline amortization view with maturity and
// volume effects into the Cm_sq(A_w, λ, N_w) function eq (7) asks for:
//
//   - base: the fabline's cost/cm² at reference utilization 0.85;
//   - maturity: process age discounts cost toward the floor with time
//     constant tauMonths (equipment debug, recipe stabilization);
//   - volume: an experience-curve multiplier normalized to refWafers.
//
// The returned closure is safe for concurrent use.
func MatureWaferCost(f Fabline, tauMonths, months float64, curve ExperienceCurve, refWafers float64) (func(waferAreaCM2, lambdaUM, wafers float64) float64, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := curve.Validate(); err != nil {
		return nil, err
	}
	if tauMonths <= 0 {
		return nil, fmt.Errorf("fab: maturity time constant must be positive, got %v", tauMonths)
	}
	if months < 0 {
		return nil, fmt.Errorf("fab: process age must be non-negative, got %v", months)
	}
	if refWafers < 1 {
		return nil, fmt.Errorf("fab: reference volume must be >= 1 wafer, got %v", refWafers)
	}
	base, err := f.CostPerCM2(0.85)
	if err != nil {
		return nil, err
	}
	// Immature processes cost up to 60% more; the premium decays with age.
	maturityMult := 1 + 0.6*math.Exp(-months/tauMonths)
	refAvg, err := curve.AverageCost(refWafers)
	if err != nil {
		return nil, err
	}
	return func(waferAreaCM2, lambdaUM, wafers float64) float64 {
		if wafers < 1 {
			wafers = 1
		}
		avg, err := curve.AverageCost(wafers)
		if err != nil {
			// Unreachable after the wafers clamp; keep the multiplier neutral.
			avg = refAvg
		}
		volMult := avg / refAvg
		return base * maturityMult * volMult
	}, nil
}
