package core

import (
	"errors"
	"fmt"
)

// Scenario assembles everything eq (4) needs to price a transistor in a
// fully functional IC:
//
//	C_tr = λ²·s_d/(u·Y) · (Cm_sq + Cd_sq)
//	Cd_sq = (C_MA + C_DE)/(N_w·A_w)
//
// Process carries λ, Cm_sq, Y and A_w; Design carries N_tr and s_d;
// DesignCost is the eq (6) model; MaskCost is the mask-set price C_MA;
// Wafers is the production volume N_w. Utilization is the eq (7)/§2.5
// hardware-utilization factor u (1 for a fully used ASIC, < 1 when only a
// subset of fabricated transistors delivers function, e.g. an FPGA); a zero
// value is treated as 1 so that the zero Scenario extended field set stays
// backward compatible with the plain eq (4) reading.
type Scenario struct {
	Process     Process
	Design      Design
	DesignCost  DesignCostModel
	MaskCost    float64 // C_MA, dollars per mask set
	Wafers      float64 // N_w, production volume in wafers
	Utilization float64 // u in (0, 1]; 0 means 1
}

// utilization returns the effective u with the zero-value default applied.
func (s Scenario) utilization() float64 {
	if s.Utilization == 0 {
		return 1
	}
	return s.Utilization
}

// Validate reports the first invalid field of the scenario, or nil.
func (s Scenario) Validate() error {
	if err := s.Process.Validate(); err != nil {
		return err
	}
	if err := s.Design.Validate(); err != nil {
		return err
	}
	if err := s.DesignCost.Validate(); err != nil {
		return err
	}
	if !finiteNonNeg(s.MaskCost) {
		return fmt.Errorf("core: scenario: mask cost must be non-negative and finite, got %v", s.MaskCost)
	}
	if !finitePos(s.Wafers) {
		return fmt.Errorf("core: scenario: wafer volume must be positive and finite, got %v", s.Wafers)
	}
	if u := s.utilization(); !(u > 0 && u <= 1) {
		return fmt.Errorf("core: scenario: utilization must be in (0,1], got %v", u)
	}
	return nil
}

// Breakdown itemizes the cost of one transistor under a scenario. All
// fields are dollars per functioning (and, when u < 1, utilized)
// transistor except the per-cm² rates.
type Breakdown struct {
	Manufacturing float64 // Cm_sq share of eq (4)
	DesignAndMask float64 // Cd_sq share of eq (4)
	Total         float64 // Manufacturing + DesignAndMask

	CmSq     float64 // manufacturing $/cm²
	CdSq     float64 // design+mask $/cm², eq (5)
	DieArea  float64 // A_ch, cm²
	DieCost  float64 // Total · N_tr
	DesignDE float64 // C_DE, the eq (6) total design cost in dollars
}

// TransistorCost evaluates eq (4) (with the §2.5 utilization extension) and
// returns the full cost breakdown. The design must satisfy
// s_d > DesignCost.Sd0; everything else is validated by Validate.
func (s Scenario) TransistorCost() (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	cde, err := s.DesignCost.Cost(s.Design.Transistors, s.Design.Sd)
	if err != nil {
		return Breakdown{}, err
	}
	cdsq, err := DesignCostPerCM2(s.MaskCost, cde, s.Wafers, s.Process.WaferAreaCM2)
	if err != nil {
		return Breakdown{}, err
	}
	geom := LambdaSquaredCM2(s.Process.LambdaUM) * s.Design.Sd / (s.utilization() * s.Process.Yield)
	b := Breakdown{
		Manufacturing: geom * s.Process.CostPerCM2,
		DesignAndMask: geom * cdsq,
		CmSq:          s.Process.CostPerCM2,
		CdSq:          cdsq,
		DesignDE:      cde,
	}
	b.Total = b.Manufacturing + b.DesignAndMask
	b.DieArea, err = s.Design.AreaCM2(s.Process.LambdaUM)
	if err != nil {
		return Breakdown{}, err
	}
	b.DieCost = b.Total * s.Design.Transistors
	return b, nil
}

// WithSd returns a copy of the scenario with the design decompression
// index replaced, for sweeps over s_d.
func (s Scenario) WithSd(sd float64) Scenario {
	s.Design.Sd = sd
	return s
}

// WithWafers returns a copy of the scenario with the production volume
// replaced, for sweeps over N_w.
func (s Scenario) WithWafers(wafers float64) Scenario {
	s.Wafers = wafers
	return s
}

// Generalized is eq (7): the same cost skeleton with every parameter
// promoted to a function of the operating point, acknowledging that wafer
// cost, design cost and yield are each complex functions of wafer area,
// feature size, volume, design size and density:
//
//	C_tr = s_d·λ²·[Cm_sq(A_w,λ,N_w) + Cd_sq(A_w,λ,N_w,N_tr,s_d0)] / (u·Y(A_w,λ,N_w,s_d,N_tr))
//
// Nil function fields fall back to the scalar defaults so that a
// Generalized wrapping a plain Scenario reproduces eq (4) exactly.
type Generalized struct {
	Scenario

	// CmSqFn returns the manufacturing cost per cm² at an operating point.
	CmSqFn func(waferAreaCM2, lambdaUM, wafers float64) float64
	// CdSqFn returns the design+mask cost per cm² at an operating point.
	CdSqFn func(waferAreaCM2, lambdaUM, wafers, transistors, sd0 float64) float64
	// YieldFn returns the manufacturing yield at an operating point.
	YieldFn func(waferAreaCM2, lambdaUM, wafers, sd, transistors float64) float64
}

// TransistorCost evaluates eq (7). Function fields override the scalar
// scenario parameters; the yield returned by YieldFn must lie in (0, 1].
func (g Generalized) TransistorCost() (Breakdown, error) {
	s := g.Scenario
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	p := s.Process

	cmsq := p.CostPerCM2
	if g.CmSqFn != nil {
		cmsq = g.CmSqFn(p.WaferAreaCM2, p.LambdaUM, s.Wafers)
		if cmsq <= 0 {
			return Breakdown{}, fmt.Errorf("core: generalized: CmSqFn returned non-positive cost %v", cmsq)
		}
	}
	var cdsq float64
	var cde float64
	if g.CdSqFn != nil {
		cdsq = g.CdSqFn(p.WaferAreaCM2, p.LambdaUM, s.Wafers, s.Design.Transistors, s.DesignCost.Sd0)
		if cdsq < 0 {
			return Breakdown{}, fmt.Errorf("core: generalized: CdSqFn returned negative cost %v", cdsq)
		}
	} else {
		var err error
		cde, err = s.DesignCost.Cost(s.Design.Transistors, s.Design.Sd)
		if err != nil {
			return Breakdown{}, err
		}
		cdsq, err = DesignCostPerCM2(s.MaskCost, cde, s.Wafers, p.WaferAreaCM2)
		if err != nil {
			return Breakdown{}, err
		}
	}
	yield := p.Yield
	if g.YieldFn != nil {
		yield = g.YieldFn(p.WaferAreaCM2, p.LambdaUM, s.Wafers, s.Design.Sd, s.Design.Transistors)
		if !validYield(yield) {
			return Breakdown{}, fmt.Errorf("core: generalized: YieldFn returned invalid yield %v", yield)
		}
	}

	geom := LambdaSquaredCM2(p.LambdaUM) * s.Design.Sd / (s.utilization() * yield)
	b := Breakdown{
		Manufacturing: geom * cmsq,
		DesignAndMask: geom * cdsq,
		CmSq:          cmsq,
		CdSq:          cdsq,
		DesignDE:      cde,
	}
	b.Total = b.Manufacturing + b.DesignAndMask
	var err error
	b.DieArea, err = s.Design.AreaCM2(p.LambdaUM)
	if err != nil {
		return Breakdown{}, err
	}
	b.DieCost = b.Total * s.Design.Transistors
	return b, nil
}

// ErrNoCrossover is returned by crossover searches when the two cost
// curves do not intersect on the searched interval.
var ErrNoCrossover = errors.New("core: cost curves do not cross on the searched interval")
