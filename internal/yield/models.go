// Package yield implements the manufacturing-yield substrate the paper's
// cost models consume: the classical analytic yield models (Poisson,
// Murphy, Seeds, negative binomial), defect size distributions with
// critical-area averaging, redundancy repair and a spatial wafer-map
// simulator. The die-level Monte Carlo that measures yield directly, so
// the analytic models can be validated against it (the DfM modeling
// capability §3.1 calls for), is internal/mcjob's defect kind.
package yield

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Model maps the mean number of fatal defects per die λ = D0·A_crit to a
// yield in (0, 1]. Implementations must be monotonically decreasing in
// lambda with Yield(0) = 1.
type Model interface {
	// Yield returns the probability that a die with mean fatal-defect
	// count lambda is functional. lambda must be non-negative.
	Yield(lambda float64) float64
	// Name identifies the model in reports.
	Name() string
}

// Poisson is the classical random-defect model Y = e^{−λ}, exact when
// defects land independently and uniformly.
type Poisson struct{}

// Yield implements Model.
func (Poisson) Yield(lambda float64) float64 { return math.Exp(-lambda) }

// Name implements Model.
func (Poisson) Name() string { return "poisson" }

// Murphy is Murphy's model Y = ((1−e^{−λ})/λ)², the integral of the
// Poisson yield over a triangular defect-density distribution. It sits
// between Poisson and Seeds for all λ.
type Murphy struct{}

// Yield implements Model.
func (Murphy) Yield(lambda float64) float64 {
	if lambda == 0 {
		return 1
	}
	v := (1 - math.Exp(-lambda)) / lambda
	return v * v
}

// Name implements Model.
func (Murphy) Name() string { return "murphy" }

// Seeds is the exponential-mixture model Y = 1/(1+λ), the most pessimistic
// classical form at low λ and most optimistic at high λ.
type Seeds struct{}

// Yield implements Model.
func (Seeds) Yield(lambda float64) float64 { return 1 / (1 + lambda) }

// Name implements Model.
func (Seeds) Name() string { return "seeds" }

// NegBinomial is the negative-binomial model
//
//	Y = (1 + λ/α)^{−α}
//
// where α is the defect clustering parameter: α→∞ recovers Poisson,
// α = 1 recovers Seeds. Industrial practice uses α ≈ 0.3–5. This is the
// model the paper's reference [31] ("New Yield Models for DSM
// Manufacturing") generalizes.
type NegBinomial struct {
	Alpha float64
}

// Yield implements Model. It panics on any error YieldE would report
// (Alpha ≤ 0, non-finite Alpha, negative lambda), which indicates
// construction-time programmer error on the internal hot paths;
// user-reachable paths should call YieldE and report the error.
func (m NegBinomial) Yield(lambda float64) float64 {
	y, err := m.YieldE(lambda)
	if err != nil {
		panic(err.Error())
	}
	return y
}

// YieldE is the error-returning form of Yield: it rejects a clustering
// parameter outside (0, ∞) and a negative or NaN lambda instead of
// panicking. (Alpha = +Inf is rejected too: the α→∞ Poisson limit is not
// reproduced by floating-point Pow, which would return 1 for every
// lambda.)
func (m NegBinomial) YieldE(lambda float64) (float64, error) {
	if !(m.Alpha > 0) || math.IsInf(m.Alpha, 1) {
		return 0, fmt.Errorf("yield: NegBinomial requires finite Alpha > 0, got %v", m.Alpha)
	}
	if !(lambda >= 0) {
		return 0, fmt.Errorf("yield: NegBinomial lambda must be non-negative, got %v", lambda)
	}
	return math.Pow(1+lambda/m.Alpha, -m.Alpha), nil
}

// Name implements Model.
func (m NegBinomial) Name() string { return fmt.Sprintf("negbinomial(α=%g)", m.Alpha) }

// MurphyByIntegral evaluates Murphy's model from first principles by
// integrating the Poisson yield over the triangular defect-density
// distribution on [0, 2λ]. It exists to validate the closed form.
func MurphyByIntegral(lambda float64) (float64, error) {
	if lambda < 0 {
		return 0, fmt.Errorf("yield: lambda must be non-negative, got %v", lambda)
	}
	if lambda == 0 {
		return 1, nil
	}
	// Triangular density on [0, 2λ] peaking at λ: f(x) = x/λ² on [0,λ],
	// (2λ−x)/λ² on [λ,2λ].
	up, err := stats.Integrate(func(x float64) float64 {
		return math.Exp(-x) * x / (lambda * lambda)
	}, 0, lambda, 1e-12)
	if err != nil {
		return 0, err
	}
	down, err := stats.Integrate(func(x float64) float64 {
		return math.Exp(-x) * (2*lambda - x) / (lambda * lambda)
	}, lambda, 2*lambda, 1e-12)
	if err != nil {
		return 0, err
	}
	return up + down, nil
}

// Lambda returns the mean fatal defect count for a die of areaCM2 under
// defect density d0 (defects per cm²). It returns an error for negative
// inputs.
func Lambda(d0, areaCM2 float64) (float64, error) {
	if d0 < 0 {
		return 0, fmt.Errorf("yield: defect density must be non-negative, got %v", d0)
	}
	if areaCM2 < 0 {
		return 0, fmt.Errorf("yield: area must be non-negative, got %v", areaCM2)
	}
	return d0 * areaCM2, nil
}
