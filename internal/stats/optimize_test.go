package stats

import (
	"math"
	"testing"
)

func TestMinimizeQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	res, err := Minimize(f, -10, 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-3) > 1e-6 {
		t.Fatalf("argmin = %v, want 3", res.X)
	}
	if res.F > 1e-10 {
		t.Fatalf("minimum value = %v, want ~0", res.F)
	}
	if res.Evals <= 0 || res.Evals > 200 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

func TestMinimizeAsymmetric(t *testing.T) {
	// The transistor cost curve shape: 1/(s-100)^1.2 + s ... minimum away
	// from interval center, steep on one side.
	f := func(s float64) float64 { return 1e4/math.Pow(s-100, 1.2) + 0.5*s }
	res, err := Minimize(f, 101, 2000, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against dense grid scan.
	gx, gf := ArgminGrid(f, 101, 2000, 200001)
	if math.Abs(res.X-gx) > 0.05 {
		t.Fatalf("argmin = %v, grid says %v", res.X, gx)
	}
	if res.F > gf+1e-9 {
		t.Fatalf("minimum %v worse than grid minimum %v", res.F, gf)
	}
}

func TestMinimizeAtBoundary(t *testing.T) {
	// Monotone increasing: minimum at left boundary.
	res, err := Minimize(func(x float64) float64 { return x }, 2, 5, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-2) > 1e-3 {
		t.Fatalf("boundary argmin = %v, want ~2", res.X)
	}
}

func TestMinimizeInvalidInterval(t *testing.T) {
	if _, err := Minimize(func(x float64) float64 { return x }, 5, 5, 0); err == nil {
		t.Fatal("accepted empty interval")
	}
	if _, err := Minimize(func(x float64) float64 { return x }, 6, 5, 0); err == nil {
		t.Fatal("accepted inverted interval")
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-9 {
		t.Fatalf("root = %v, want sqrt(2)", root)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x }, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0 {
		t.Fatalf("root = %v, want 0", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 0); err == nil {
		t.Fatal("accepted non-bracketing interval")
	}
}

func TestArgminGrid(t *testing.T) {
	x, fx := ArgminGrid(func(x float64) float64 { return math.Abs(x - 0.7) }, 0, 1, 101)
	if math.Abs(x-0.7) > 1e-9 {
		t.Fatalf("grid argmin = %v, want 0.7", x)
	}
	if fx > 1e-9 {
		t.Fatalf("grid min value = %v", fx)
	}
}

func TestArgminGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ArgminGrid accepted n < 2")
		}
	}()
	ArgminGrid(func(x float64) float64 { return x }, 0, 1, 1)
}

func TestIntegratePolynomial(t *testing.T) {
	// ∫₀¹ 3x² dx = 1
	v, err := Integrate(func(x float64) float64 { return 3 * x * x }, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-10 {
		t.Fatalf("integral = %v, want 1", v)
	}
}

func TestIntegrateExp(t *testing.T) {
	// ∫₀^∞-ish e^-x dx over [0,50] ≈ 1.
	v, err := Integrate(math.Exp, -1, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-(1-1/math.E)) > 1e-10 {
		t.Fatalf("integral = %v, want %v", v, 1-1/math.E)
	}
}

func TestIntegrateReversedLimits(t *testing.T) {
	fwd, err := Integrate(func(x float64) float64 { return x }, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Integrate(func(x float64) float64 { return x }, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fwd+rev) > 1e-12 {
		t.Fatalf("reversed limits not antisymmetric: %v vs %v", fwd, rev)
	}
}

func TestIntegrateZeroWidth(t *testing.T) {
	v, err := Integrate(math.Exp, 1, 1, 0)
	if err != nil || v != 0 {
		t.Fatalf("zero-width integral = %v, %v", v, err)
	}
}
