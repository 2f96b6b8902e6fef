package yield_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/mcjob"
	"repro/internal/yield"
)

// TestSimulateMatchesNegBinomial holds the negative-binomial law to the
// defect Monte Carlo: a gamma draw of the fatal-defect rate per die at α
// gives (1+λ/α)^-α within 4σ at 2²⁰ trials, above Poisson's exp(-λ).
func TestSimulateMatchesNegBinomial(t *testing.T) {
	nb := yield.NegBinomial{Alpha: 0.8}
	for _, lambda := range []float64{0.5, 1.5} {
		k, err := mcjob.NewDefectKernel(mcjob.DefectSpec{Lambda: lambda, Alpha: nb.Alpha})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mcjob.Run(context.Background(), k, mcjob.RunConfig{Trials: 1 << 20, Shards: 16, Workers: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.Values["yield"], nb.Yield(lambda)
		z := (got - want) / res.Values["stderr"]
		t.Logf("λ=%v: yield %v, %s %v, z = %.2f", lambda, got, nb.Name(), want, z)
		if math.Abs(z) > 4 {
			t.Errorf("λ=%v: yield %v too far from %s = %v (z = %.2f)", lambda, got, nb.Name(), want, z)
		}
		if poisson := (yield.Poisson{}).Yield(lambda); got <= poisson {
			t.Errorf("λ=%v: clustered yield %v not above Poisson %v", lambda, got, poisson)
		}
		if mean := res.Values["mean_lambda"]; math.Abs(mean-lambda) > 0.01*lambda {
			t.Errorf("λ=%v: realized mean rate %v", lambda, mean)
		}
	}
}
