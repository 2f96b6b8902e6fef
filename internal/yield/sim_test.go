package yield

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestDefectSizeDistNormalized(t *testing.T) {
	d := DefaultDefectSizeDist(0.25)
	integral, err := stats.Integrate(d.Density, 0, d.X0*2000, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Fatalf("size density integrates to %v, want 1", integral)
	}
}

func TestDefectSizeDistShape(t *testing.T) {
	d := DefectSizeDist{X0: 1, P: 3}
	// Rising below the peak, falling above.
	if !(d.Density(0.2) < d.Density(0.8)) {
		t.Fatal("density not rising below peak")
	}
	if !(d.Density(2) > d.Density(4)) {
		t.Fatal("density not falling above peak")
	}
	// 1/x³ decade decay above peak: f(10)/f(100) = 1000.
	ratio := d.Density(10) / d.Density(100)
	if math.Abs(ratio-1000) > 1 {
		t.Fatalf("power-law decade ratio = %v, want 1000", ratio)
	}
	if d.Density(0) != 0 || d.Density(-1) != 0 {
		t.Fatal("density not zero for non-positive sizes")
	}
}

func TestDefectSizeDistMean(t *testing.T) {
	d := DefectSizeDist{X0: 1, P: 3}
	mean, err := d.Mean()
	if err != nil {
		t.Fatal(err)
	}
	// k = 1/(1/2 + 1/2) = 1; mean = 1/3 + 1/1 = 4/3.
	if math.Abs(mean-4.0/3.0) > 1e-12 {
		t.Fatalf("mean = %v, want 4/3", mean)
	}
	// Diverging mean for P = 2.
	if _, err := (DefectSizeDist{X0: 1, P: 2}).Mean(); err == nil {
		t.Fatal("accepted diverging mean")
	}
}

func TestDefectSizeSampleMatchesMean(t *testing.T) {
	d := DefectSizeDist{X0: 1, P: 3.5}
	want, err := d.Mean()
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(777)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		if x <= 0 {
			t.Fatalf("sampled non-positive size %v", x)
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("sample mean = %v, analytic %v", got, want)
	}
}

func TestAverageCriticalArea(t *testing.T) {
	// With A_c(x) = 1 everywhere the average is 1 (density normalized).
	d := DefectSizeDist{X0: 1, P: 3}
	avg, err := AverageCriticalArea(d, func(x float64) float64 { return 1 }, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-1) > 1e-3 {
		t.Fatalf("constant critical area averaged to %v, want 1", avg)
	}
	if _, err := AverageCriticalArea(d, func(x float64) float64 { return 1 }, 0); err == nil {
		t.Fatal("accepted zero xMax")
	}
	bad := DefectSizeDist{X0: 0, P: 3}
	if _, err := AverageCriticalArea(bad, func(x float64) float64 { return 1 }, 10); err == nil {
		t.Fatal("accepted invalid distribution")
	}
}

func TestSimulateMatchesPoisson(t *testing.T) {
	for _, l := range []float64{0.2, 0.7, 1.5} {
		res, err := Simulate(SimConfig{DiePerWafer: 400, Wafers: 200, Lambda: l, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := (Poisson{}).Yield(l)
		tol := 4*res.StdErr + 0.005
		if math.Abs(res.Yield-want) > tol {
			t.Errorf("λ=%v: measured %v ± %v, Poisson %v", l, res.Yield, res.StdErr, want)
		}
		if math.Abs(res.MeanLambda-l) > 0.01*l {
			t.Errorf("λ=%v: realized mean %v", l, res.MeanLambda)
		}
	}
}

func TestSimulateMatchesNegBinomial(t *testing.T) {
	// Per-die gamma mixing reproduces the NB yield exactly in expectation.
	alpha := 0.8
	for _, l := range []float64{0.5, 1.5} {
		res, err := Simulate(SimConfig{
			DiePerWafer: 400, Wafers: 300, Lambda: l,
			ClusterAlpha: alpha, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := NegBinomial{Alpha: alpha}.Yield(l)
		if math.Abs(res.Yield-want) > 4*res.StdErr+0.01 {
			t.Errorf("λ=%v: measured %v ± %v, NB(%v) %v", l, res.Yield, res.StdErr, alpha, want)
		}
		// And clustering must beat the Poisson prediction.
		if res.Yield <= (Poisson{}).Yield(l) {
			t.Errorf("λ=%v: clustered yield %v not above Poisson %v", l, res.Yield, (Poisson{}).Yield(l))
		}
	}
}

func TestSimulateWaferClusteringSameMeanMoreSpread(t *testing.T) {
	l := 1.0
	perDie, err := Simulate(SimConfig{DiePerWafer: 300, Wafers: 300, Lambda: l, ClusterAlpha: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	perWafer, err := Simulate(SimConfig{DiePerWafer: 300, Wafers: 300, Lambda: l, ClusterAlpha: 1, WaferToWafer: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Same marginal yield...
	if math.Abs(perDie.Yield-perWafer.Yield) > 4*(perDie.StdErr+perWafer.StdErr)+0.01 {
		t.Fatalf("per-die %v vs per-wafer %v yields disagree beyond error", perDie.Yield, perWafer.Yield)
	}
	// ...but wafer-level clustering inflates wafer-to-wafer spread.
	if perWafer.StdErr <= perDie.StdErr {
		t.Fatalf("wafer clustering stderr %v not above per-die %v", perWafer.StdErr, perDie.StdErr)
	}
}

func TestSimulateSpatialGradientPreservesMean(t *testing.T) {
	l := 1.0
	res, err := Simulate(SimConfig{DiePerWafer: 400, Wafers: 200, Lambda: l, SpatialRadius: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mean rate preserved within sampling error...
	if math.Abs(res.MeanLambda-l) > 0.02 {
		t.Fatalf("gradient shifted mean lambda to %v", res.MeanLambda)
	}
	// ...and mixing over positions raises yield above pure Poisson.
	if res.Yield <= (Poisson{}).Yield(l) {
		t.Fatalf("spatial mixing yield %v not above Poisson %v", res.Yield, (Poisson{}).Yield(l))
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimConfig{DiePerWafer: 100, Wafers: 50, Lambda: 0.8, ClusterAlpha: 1, Seed: 9}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := []SimConfig{
		{DiePerWafer: 0, Wafers: 1, Lambda: 1},
		{DiePerWafer: 1, Wafers: 0, Lambda: 1},
		{DiePerWafer: 1, Wafers: 1, Lambda: -1},
		{DiePerWafer: 1, Wafers: 1, Lambda: 1, ClusterAlpha: -1},
		{DiePerWafer: 1, Wafers: 1, Lambda: 1, SpatialRadius: 1},
	}
	for i, c := range bad {
		if _, err := Simulate(c); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestSimulateDeterministicAcrossWorkers(t *testing.T) {
	c := SimConfig{
		DiePerWafer: 150, Wafers: 40, Lambda: 0.9,
		ClusterAlpha: 0.8, WaferToWafer: true, SpatialRadius: 0.3, Seed: 17,
	}
	c.Workers = 1
	ref, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		c.Workers = workers
		got, err := Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("workers=%d: %+v, serial %+v", workers, got, ref)
		}
	}
}
