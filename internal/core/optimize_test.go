package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestOptimalSdIsInteriorMinimum(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	opt, err := OptimalSd(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Sd <= s.DesignCost.Sd0 || opt.Sd >= 2000 {
		t.Fatalf("optimum s_d = %v not interior", opt.Sd)
	}
	// Neighbors must not be cheaper.
	for _, dx := range []float64{-5, -1, 1, 5} {
		b, err := s.WithSd(opt.Sd + dx).TransistorCost()
		if err != nil {
			t.Fatal(err)
		}
		if b.Total < opt.Breakdown.Total-1e-15 {
			t.Fatalf("neighbor s_d=%v cost %v beats optimum %v", opt.Sd+dx, b.Total, opt.Breakdown.Total)
		}
	}
}

func TestOptimalSdMovesWithVolume(t *testing.T) {
	// §3.1: the location of the optimum s_d changes substantially with
	// volume and yield — low volume pushes the optimum to sparser designs
	// (design cost dominates), high volume to denser designs.
	low, err := OptimalSd(figure4Scenario(5000, 0.4), 5000)
	if err != nil {
		t.Fatal(err)
	}
	high, err := OptimalSd(figure4Scenario(50000, 0.9), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !(high.Sd < low.Sd) {
		t.Fatalf("optimal s_d: high volume %v not below low volume %v", high.Sd, low.Sd)
	}
	if !(high.Breakdown.Total < low.Breakdown.Total) {
		t.Fatalf("high-volume optimal cost %v not below low-volume %v", high.Breakdown.Total, low.Breakdown.Total)
	}
}

func TestOptimalSdValidation(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	if _, err := OptimalSd(s, 50); err == nil {
		t.Fatal("accepted sdMax below s_d0")
	}
	bad := s
	bad.Wafers = 0
	if _, err := OptimalSd(bad, 2000); err == nil {
		t.Fatal("accepted invalid scenario")
	}
}

func TestSweepSdShapeIsUCurve(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	pts, err := SweepSdCtx(context.Background(), s, 105, 3000, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 200 {
		t.Fatalf("got %d points, want 200", len(pts))
	}
	if pts[0].X != 105 || !almost(pts[len(pts)-1].X, 3000, 1e-12) {
		t.Fatalf("endpoints = %v, %v", pts[0].X, pts[len(pts)-1].X)
	}
	// U-shape: strictly decreasing then strictly increasing around a single
	// interior minimum.
	minIdx := 0
	for i, p := range pts {
		if p.Breakdown.Total < pts[minIdx].Breakdown.Total {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(pts)-1 {
		t.Fatalf("minimum at boundary index %d — not a U curve", minIdx)
	}
	for i := 1; i <= minIdx; i++ {
		if pts[i].Breakdown.Total > pts[i-1].Breakdown.Total {
			t.Fatalf("not descending before minimum at i=%d", i)
		}
	}
	for i := minIdx + 1; i < len(pts); i++ {
		if pts[i].Breakdown.Total < pts[i-1].Breakdown.Total {
			t.Fatalf("not ascending after minimum at i=%d", i)
		}
	}
}

func TestSweepSdValidation(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	if _, err := SweepSdCtx(context.Background(), s, 50, 3000, 10); err == nil {
		t.Fatal("accepted lo below s_d0")
	}
	if _, err := SweepSdCtx(context.Background(), s, 300, 200, 10); err == nil {
		t.Fatal("accepted inverted range")
	}
	if _, err := SweepSdCtx(context.Background(), s, 105, 3000, 1); err == nil {
		t.Fatal("accepted single-point sweep")
	}
}

func TestSweepVolumeMonotone(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	pts, err := SweepVolume(s, 100, 1e6, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Breakdown.Total >= pts[i-1].Breakdown.Total {
			t.Fatalf("cost not strictly decreasing in volume at i=%d", i)
		}
	}
	// Asymptote: the eq (3) manufacturing-only cost.
	floor, err := ManufacturingCostPerTransistor(s.Process, s.Design)
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1].Breakdown.Total
	if last < floor || last > floor*1.05 {
		t.Fatalf("high-volume cost %v does not approach eq(3) floor %v", last, floor)
	}
}

func TestCrossoverVolumeFPGAvsASIC(t *testing.T) {
	// ASIC: full utilization, full design cost at s_d=300.
	asic := figure4Scenario(1000, 0.8)
	// FPGA: u = 0.4 (most fabric idle), but the design cost of the fabric
	// is amortized across many customers — model as tiny per-product design
	// cost by using a sparse s_d (cheap design) and zero mask cost.
	fpga := figure4Scenario(1000, 0.8)
	fpga.Utilization = 0.4
	fpga.Design.Sd = 2000 // prefabricated fabric: no dense custom layout
	fpga.MaskCost = 0
	fpga.DesignCost = DesignCostModel{A0: 1, P1: 1, P2: 1.2, Sd0: 100} // 1000x cheaper design

	cross, err := CrossoverVolume(asic, fpga, 10, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// Below crossover the FPGA must win, above the ASIC.
	lowA, _ := asic.WithWafers(cross / 4).TransistorCost()
	lowF, _ := fpga.WithWafers(cross / 4).TransistorCost()
	if lowF.Total >= lowA.Total {
		t.Fatalf("below crossover (%v wafers): FPGA %v not cheaper than ASIC %v", cross/4, lowF.Total, lowA.Total)
	}
	highA, _ := asic.WithWafers(cross * 4).TransistorCost()
	highF, _ := fpga.WithWafers(cross * 4).TransistorCost()
	if highA.Total >= highF.Total {
		t.Fatalf("above crossover (%v wafers): ASIC %v not cheaper than FPGA %v", cross*4, highA.Total, highF.Total)
	}
}

func TestCrossoverVolumeNoCross(t *testing.T) {
	a := figure4Scenario(1000, 0.8)
	b := a
	b.Process.CostPerCM2 = a.Process.CostPerCM2 * 2 // strictly worse everywhere
	_, err := CrossoverVolume(a, b, 10, 1e6)
	if !errors.Is(err, ErrNoCrossover) {
		t.Fatalf("err = %v, want ErrNoCrossover", err)
	}
}

// elasticity estimates the local elasticity d ln C_tr / d ln x of the
// eq (4) transistor cost at scenario s by central differences with
// relative step 1e-5; set writes a value of x into a copy of s.
func elasticity(t *testing.T, s Scenario, x float64, set func(*Scenario, float64)) float64 {
	t.Helper()
	cost := func(v float64) float64 {
		sc := s
		set(&sc, v)
		b, err := sc.TransistorCost()
		if err != nil {
			t.Fatal(err)
		}
		return b.Total
	}
	const h = 1e-5
	return (cost(x*(1+h)) - cost(x*(1-h))) / (2 * h * cost(x))
}

func lambdaOf(sc *Scenario, v float64)      { sc.Process.LambdaUM = v }
func sdOf(sc *Scenario, v float64)          { sc.Design.Sd = v }
func yieldOf(sc *Scenario, v float64)       { sc.Process.Yield = v }
func cmSqOf(sc *Scenario, v float64)        { sc.Process.CostPerCM2 = v }
func wafersOf(sc *Scenario, v float64)      { sc.Wafers = v }
func transistorsOf(sc *Scenario, v float64) { sc.Design.Transistors = v }

func TestSensitivitiesMatchAnalyticExponents(t *testing.T) {
	// With design cost ≈ 0 (huge volume), eq (4) ≈ eq (3) = C·λ²·s_d/Y:
	// elasticities must be λ:+2, s_d:+1, Y:-1, CmSq:+1, N_w:≈0.
	s := figure4Scenario(1e8, 0.8)
	checks := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"lambda", elasticity(t, s, s.Process.LambdaUM, lambdaOf), 2, 1e-3},
		{"sd", elasticity(t, s, s.Design.Sd, sdOf), 1, 2e-2}, // slight deviation from the eq(6) term
		{"yield", elasticity(t, s, s.Process.Yield, yieldOf), -1, 1e-3},
		{"cmsq", elasticity(t, s, s.Process.CostPerCM2, cmSqOf), 1, 1e-2},
		{"wafers", elasticity(t, s, s.Wafers, wafersOf), 0, 1e-2},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s elasticity = %v, want %v ± %v", c.name, c.got, c.want, c.tol)
		}
	}
}

func TestSensitivitiesLowVolumeVolumeMatters(t *testing.T) {
	s := figure4Scenario(2000, 0.4)
	if e := elasticity(t, s, s.Wafers, wafersOf); e >= 0 {
		t.Fatalf("volume elasticity = %v, want negative at low volume", e)
	}
	if e := elasticity(t, s, s.Design.Transistors, transistorsOf); e <= 0 {
		t.Fatalf("transistor elasticity = %v, want positive at low volume (design cost grows)", e)
	}
}
