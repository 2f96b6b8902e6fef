package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// DefectLevel returns the Williams–Brown shipped-defect level: the
// fraction of parts that pass a test with fault coverage T but are in
// fact defective,
//
//	DL = 1 − Y^{(1−T)}
//
// with Y the true yield and T ∈ [0, 1]. Full coverage ships zero escapes;
// zero coverage ships the entire defective population. The value times
// 1e6 is the familiar DPM figure.
func DefectLevel(yield, coverage float64) (float64, error) {
	if !(yield > 0 && yield <= 1) {
		return 0, fmt.Errorf("core: defect level: yield must be in (0,1], got %v", yield)
	}
	if coverage < 0 || coverage > 1 {
		return 0, fmt.Errorf("core: defect level: coverage must be in [0,1], got %v", coverage)
	}
	return 1 - math.Pow(yield, 1-coverage), nil
}

// TestEconomics balances test cost against escape cost: raising fault
// coverage costs tester time (test seconds grow superlinearly as coverage
// approaches 1: seconds ∝ 1/(1−T)^CovExp − 1 scaled to BaseSeconds at
// RefCoverage) while every shipped escape costs EscapeCost (replacement,
// RMA, reputation). OptimalCoverage minimizes the sum per shipped part.
type TestEconomics struct {
	Test        TestCostModel
	RefCoverage float64 // coverage the Test model's BaseSeconds buys
	CovExp      float64 // test-time growth exponent toward full coverage
	EscapeCost  float64 // $ per shipped defective part
}

// DefaultTestEconomics pairs the default test model (4 s at 95% coverage)
// with a $50 escape cost.
func DefaultTestEconomics() TestEconomics {
	return TestEconomics{
		Test:        DefaultTestCostModel(),
		RefCoverage: 0.95,
		CovExp:      1,
		EscapeCost:  50,
	}
}

// Validate reports the first invalid field of e, or nil.
func (e TestEconomics) Validate() error {
	if err := e.Test.Validate(); err != nil {
		return err
	}
	if !(e.RefCoverage > 0 && e.RefCoverage < 1) {
		return fmt.Errorf("core: test economics: reference coverage must be in (0,1), got %v", e.RefCoverage)
	}
	if e.CovExp <= 0 {
		return fmt.Errorf("core: test economics: coverage exponent must be positive, got %v", e.CovExp)
	}
	if e.EscapeCost < 0 {
		return fmt.Errorf("core: test economics: escape cost must be non-negative, got %v", e.EscapeCost)
	}
	return nil
}

// CostAt returns the per-shipped-part cost of testing at the given
// coverage: tester time (scaled by the coverage curve, charged to good
// die through yield) plus the expected escape charge.
func (e TestEconomics) CostAt(coverage, transistors, yield float64) (float64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	if coverage < 0 || coverage >= 1 {
		return 0, fmt.Errorf("core: test economics: coverage must be in [0,1), got %v", coverage)
	}
	base, err := e.Test.PerGoodDie(transistors, yield)
	if err != nil {
		return 0, err
	}
	refScale := math.Pow(1/(1-e.RefCoverage), e.CovExp) - 1
	scale := (math.Pow(1/(1-coverage), e.CovExp) - 1) / refScale
	dl, err := DefectLevel(yield, coverage)
	if err != nil {
		return 0, err
	}
	return base*scale + dl*e.EscapeCost, nil
}

// OptimalCoverage minimizes CostAt over coverage in [0, 0.99999].
func (e TestEconomics) OptimalCoverage(transistors, yield float64) (coverage, cost float64, err error) {
	if err := e.Validate(); err != nil {
		return 0, 0, err
	}
	obj := func(t float64) float64 {
		c, err := e.CostAt(t, transistors, yield)
		if err != nil {
			return math.Inf(1)
		}
		return c
	}
	gx, _ := stats.ArgminGrid(obj, 0, 0.99999, 1024)
	lo := math.Max(0, gx-0.002)
	hi := math.Min(0.99999, gx+0.002)
	res, err := stats.Minimize(obj, lo, hi, 1e-9)
	if err != nil {
		return 0, 0, err
	}
	return res.X, res.F, nil
}
