// Package wafer models wafer geometry: how many die of a given size fit on
// a wafer of a given diameter (the N_ch of the paper's eq (1)), under edge
// exclusion and scribe-lane constraints. It provides both an exact
// grid-placement computation and the standard analytic approximations, so
// that cost studies can quantify the error the approximations introduce.
package wafer

import (
	"fmt"
	"math"
)

// Wafer describes a raw wafer and its usable region.
type Wafer struct {
	DiameterMM      float64 // physical diameter, mm (200, 300, ...)
	EdgeExclusionMM float64 // unusable annulus at the rim, mm
}

// Standard wafer sizes with the customary 3 mm edge exclusion.
var (
	Wafer200 = Wafer{DiameterMM: 200, EdgeExclusionMM: 3}
	Wafer300 = Wafer{DiameterMM: 300, EdgeExclusionMM: 3}
)

// Validate reports the first invalid field of w, or nil.
func (w Wafer) Validate() error {
	if w.DiameterMM <= 0 {
		return fmt.Errorf("wafer: diameter must be positive, got %v mm", w.DiameterMM)
	}
	if w.EdgeExclusionMM < 0 {
		return fmt.Errorf("wafer: edge exclusion must be non-negative, got %v mm", w.EdgeExclusionMM)
	}
	if 2*w.EdgeExclusionMM >= w.DiameterMM {
		return fmt.Errorf("wafer: edge exclusion %v mm leaves no usable area on %v mm wafer", w.EdgeExclusionMM, w.DiameterMM)
	}
	return nil
}

// UsableRadiusMM returns the radius of the region die may occupy.
func (w Wafer) UsableRadiusMM() float64 { return w.DiameterMM/2 - w.EdgeExclusionMM }

// UsableAreaCM2 returns the area inside the edge exclusion in cm².
func (w Wafer) UsableAreaCM2() float64 {
	r := w.UsableRadiusMM() / 10
	return math.Pi * r * r
}

// Die describes a die outline plus the scribe (saw) lane that separates
// neighbouring die on the reticle grid.
type Die struct {
	WidthMM  float64
	HeightMM float64
	ScribeMM float64 // scribe lane width added on each grid pitch
}

// SquareDie returns a square die of the given area in cm² with the default
// 0.1 mm scribe lane, the common shortcut when only A_ch is known (as in
// the paper's data).
func SquareDie(areaCM2 float64) Die {
	side := math.Sqrt(areaCM2) * 10 // cm → mm
	return Die{WidthMM: side, HeightMM: side, ScribeMM: 0.1}
}

// Validate reports the first invalid field of d, or nil.
func (d Die) Validate() error {
	if d.WidthMM <= 0 || d.HeightMM <= 0 {
		return fmt.Errorf("wafer: die dimensions must be positive, got %v×%v mm", d.WidthMM, d.HeightMM)
	}
	if d.ScribeMM < 0 {
		return fmt.Errorf("wafer: scribe width must be non-negative, got %v mm", d.ScribeMM)
	}
	return nil
}

// AreaCM2 returns the die area (excluding scribe) in cm².
func (d Die) AreaCM2() float64 { return d.WidthMM * d.HeightMM / 100 }

// pitch returns the grid pitch (die + scribe) in mm for both axes.
func (d Die) pitch() (px, py float64) { return d.WidthMM + d.ScribeMM, d.HeightMM + d.ScribeMM }
