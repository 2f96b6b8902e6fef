package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Intercept, 3, 1e-10) || !almostEqual(fit.Slope, 2, 1e-10) {
		t.Fatalf("fit = %+v, want intercept 3 slope 2", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-10) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	r := NewRNG(99)
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 1.5-0.7*x+r.Norm(0, 0.1))
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-1.5) > 0.05 || math.Abs(fit.Slope+0.7) > 0.01 {
		t.Fatalf("noisy fit = %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v, want > 0.99", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Fatal("accepted single point")
	}
	if _, err := LinearRegression([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("accepted constant x")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

// Property: a line through any two distinct generated points is recovered
// exactly (up to floating error) by LinearRegression.
func TestLinearRegressionTwoPointProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		xs := []float64{0, 1}
		ys := []float64{a, a + b}
		fit, err := LinearRegression(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(fit.Intercept, a, 1e-6*(1+math.Abs(a))) &&
			almostEqual(fit.Slope, b, 1e-6*(1+math.Abs(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
