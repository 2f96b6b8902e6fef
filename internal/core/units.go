// Package core implements the transistor cost models of Maly, "IC Design in
// High-Cost Nanometer-Technologies Era" (DAC 2001): the manufacturing cost
// model of eq (1)–(3), the total-cost model with design and mask cost of
// eq (4)–(5), the design-effort model of eq (6), and the generalized
// parameterized model of eq (7). It also provides the optimization routines
// of §3.1 (cost-optimal design density, required density for a die-cost
// target, volume crossovers).
//
// Unit conventions, used consistently across the repository:
//
//   - minimum feature size λ is carried in micrometers (µm);
//   - areas are carried in cm²;
//   - money is carried in dollars;
//   - s_d (the design decompression index) is dimensionless: the number of
//     λ×λ squares needed to draw an average transistor;
//   - d_d (design density) is its inverse.
package core

import (
	"errors"
	"math"
)

// UMPerCM is the number of micrometers in a centimeter.
const UMPerCM = 1e4

// MicronsToCM converts a length in µm to cm.
func MicronsToCM(um float64) float64 { return um / UMPerCM }

// LambdaSquaredCM2 returns λ² in cm² for a feature size given in µm. This
// is the geometric factor of eq (2)–(4).
func LambdaSquaredCM2(lambdaUM float64) float64 {
	l := MicronsToCM(lambdaUM)
	return l * l
}

// SdFromLayout computes s_d directly from a measured die: area in cm²,
// transistor count, and feature size in µm. This is how the Table A1
// columns were extracted: s_d = A_ch / (N_tr · λ²).
func SdFromLayout(areaCM2, transistors, lambdaUM float64) (float64, error) {
	if areaCM2 <= 0 || transistors <= 0 || lambdaUM <= 0 {
		return 0, errors.New("core: SdFromLayout requires positive area, transistor count, and feature size")
	}
	return areaCM2 / (transistors * LambdaSquaredCM2(lambdaUM)), nil
}

// DieArea returns the die area A_ch in cm² implied by eq (2):
// A_ch = N_tr · λ² · s_d.
func DieArea(transistors, lambdaUM, sd float64) (float64, error) {
	if transistors <= 0 || lambdaUM <= 0 || sd <= 0 {
		return 0, errors.New("core: DieArea requires positive transistor count, feature size, and s_d")
	}
	return transistors * LambdaSquaredCM2(lambdaUM) * sd, nil
}

// validYield reports whether y is a usable yield value.
func validYield(y float64) bool { return y > 0 && y <= 1 && !math.IsNaN(y) }
