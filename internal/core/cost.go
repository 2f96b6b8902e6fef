package core

import (
	"errors"
	"fmt"
)

// Process bundles the process-dependent characteristics of eq (3): minimum
// feature size λ, the manufacturing cost per cm² of fabricated wafer
// Cm_sq, and a default line yield Y. WaferAreaCM2 is the usable wafer area
// A_w that amortizes mask and design cost in eq (5).
type Process struct {
	Name         string
	LambdaUM     float64 // minimum feature size λ, µm
	CostPerCM2   float64 // Cm_sq, $/cm² of fabricated wafer
	Yield        float64 // default manufacturing yield Y in (0, 1]
	WaferAreaCM2 float64 // usable wafer area A_w, cm²
	MetalLayers  int     // informational; drives mask-count defaults elsewhere
}

// Validate reports the first invalid field of p, or nil.
func (p Process) Validate() error {
	switch {
	case !finitePos(p.LambdaUM):
		return fmt.Errorf("core: process %q: feature size must be positive and finite, got %v µm", p.Name, p.LambdaUM)
	case !finitePos(p.CostPerCM2):
		return fmt.Errorf("core: process %q: cost per cm² must be positive and finite, got %v", p.Name, p.CostPerCM2)
	case !validYield(p.Yield):
		return fmt.Errorf("core: process %q: yield must be in (0,1], got %v", p.Name, p.Yield)
	case !finitePos(p.WaferAreaCM2):
		return fmt.Errorf("core: process %q: wafer area must be positive and finite, got %v cm²", p.Name, p.WaferAreaCM2)
	}
	return nil
}

// Design bundles the process-independent design attributes of eq (2)–(3):
// transistor count and design decompression index.
type Design struct {
	Name        string
	Transistors float64 // N_tr
	Sd          float64 // s_d, λ² squares per transistor
}

// Validate reports the first invalid field of d, or nil.
func (d Design) Validate() error {
	switch {
	case !finitePos(d.Transistors):
		return fmt.Errorf("core: design %q: transistor count must be positive and finite, got %v", d.Name, d.Transistors)
	case !finitePos(d.Sd):
		return fmt.Errorf("core: design %q: s_d must be positive and finite, got %v", d.Name, d.Sd)
	}
	return nil
}

// AreaCM2 returns the die area A_ch implied by the design on process
// feature size lambdaUM, per eq (2).
func (d Design) AreaCM2(lambdaUM float64) (float64, error) {
	return DieArea(d.Transistors, lambdaUM, d.Sd)
}

// ManufacturingCostPerTransistor evaluates eq (3):
//
//	C_tr = Cm_sq · λ² · s_d / Y
//
// with λ taken from the process and s_d from the design. The result is
// dollars per functioning transistor, counting manufacturing only.
func ManufacturingCostPerTransistor(p Process, d Design) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	return p.CostPerCM2 * LambdaSquaredCM2(p.LambdaUM) * d.Sd / p.Yield, nil
}

// RequiredSdForDieCost inverts eq (3) at the die level: it returns the
// s_d needed so that the manufacturing cost of a die with the given
// transistor count equals targetDieCost on the given process. This is the
// Figure 3 computation (constant $34 MPU die).
//
//	s_d = targetDieCost · Y / (Cm_sq · λ² · N_tr)
func RequiredSdForDieCost(targetDieCost float64, p Process, transistors float64) (float64, error) {
	if targetDieCost <= 0 {
		return 0, fmt.Errorf("core: target die cost must be positive, got %v", targetDieCost)
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if transistors <= 0 {
		return 0, errors.New("core: transistor count must be positive")
	}
	return targetDieCost * p.Yield / (p.CostPerCM2 * LambdaSquaredCM2(p.LambdaUM) * transistors), nil
}
