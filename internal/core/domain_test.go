package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestDesignCostPole pins the eq (6) behavior around the full-custom limit
// s_d0: the model must refuse s_d ≤ s_d0 (where the denominator hits its
// pole or turns negative) with ErrOutOfDomain, and answer a large finite
// cost just above it.
func TestDesignCostPole(t *testing.T) {
	m := DefaultDesignCostModel()
	const ntr = 10e6
	eps := m.Sd0 * 1e-9

	for _, sd := range []float64{m.Sd0 - eps, m.Sd0, m.Sd0 - 50, 0, -10} {
		c, err := m.Cost(ntr, sd)
		if err == nil {
			t.Fatalf("Cost(ntr, %v) = %v, want error at or below the pole", sd, c)
		}
		if !errors.Is(err, ErrOutOfDomain) {
			t.Fatalf("Cost(ntr, %v) error %v does not wrap ErrOutOfDomain", sd, err)
		}
	}

	just := m.Sd0 * (1 + 1e-9)
	c, err := m.Cost(ntr, just)
	if err != nil {
		t.Fatalf("Cost just above the pole: %v", err)
	}
	if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
		t.Fatalf("Cost just above the pole = %v, want large finite positive", c)
	}
	far, err := m.Cost(ntr, 10*m.Sd0)
	if err != nil {
		t.Fatal(err)
	}
	if !(c > far) {
		t.Fatalf("cost near the pole (%v) should dwarf the relaxed-density cost (%v)", c, far)
	}
}

// TestDesignCostRejectsNonFinite closes the NaN slip: NaN compares false
// with everything, so a plain sd <= Sd0 check would wave NaN through and
// eq (6) would return NaN as a dollar figure.
func TestDesignCostRejectsNonFinite(t *testing.T) {
	m := DefaultDesignCostModel()
	nan, inf := math.NaN(), math.Inf(1)

	for _, sd := range []float64{nan, inf, -inf} {
		if _, err := m.Cost(10e6, sd); !errors.Is(err, ErrOutOfDomain) {
			t.Errorf("Cost(ntr, %v): err = %v, want ErrOutOfDomain", sd, err)
		}
	}
	for _, ntr := range []float64{nan, inf, -inf, 0, -1} {
		if _, err := m.Cost(ntr, 300); err == nil {
			t.Errorf("Cost(%v, 300) accepted a non-finite or non-positive transistor count", ntr)
		}
	}
	for _, bad := range []DesignCostModel{
		{A0: nan, P1: 1, P2: 1.2, Sd0: 100},
		{A0: 1000, P1: nan, P2: 1.2, Sd0: 100},
		{A0: 1000, P1: 1, P2: inf, Sd0: 100},
		{A0: 1000, P1: 1, P2: 1.2, Sd0: nan},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

// TestMarginalCostSharesDomain checks that the derivative refuses exactly
// where the cost does.
func TestMarginalCostSharesDomain(t *testing.T) {
	m := DefaultDesignCostModel()
	if _, err := m.MarginalCost(10e6, m.Sd0); !errors.Is(err, ErrOutOfDomain) {
		t.Fatalf("MarginalCost at the pole: err = %v, want ErrOutOfDomain", err)
	}
	g, err := m.MarginalCost(10e6, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !(g < 0) || math.IsInf(g, 0) {
		t.Fatalf("MarginalCost = %v, want finite negative (cost falls as s_d relaxes)", g)
	}
}

// TestScenarioValidateRejectsNonFinite runs the NaN/Inf table through every
// scenario field: each poisoned value must fail validation up front, never
// reach the arithmetic.
func TestScenarioValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"lambda NaN", func(s *Scenario) { s.Process.LambdaUM = nan }},
		{"lambda Inf", func(s *Scenario) { s.Process.LambdaUM = inf }},
		{"cm_sq NaN", func(s *Scenario) { s.Process.CostPerCM2 = nan }},
		{"yield NaN", func(s *Scenario) { s.Process.Yield = nan }},
		{"yield Inf", func(s *Scenario) { s.Process.Yield = inf }},
		{"wafer area NaN", func(s *Scenario) { s.Process.WaferAreaCM2 = nan }},
		{"transistors NaN", func(s *Scenario) { s.Design.Transistors = nan }},
		{"transistors Inf", func(s *Scenario) { s.Design.Transistors = inf }},
		{"sd NaN", func(s *Scenario) { s.Design.Sd = nan }},
		{"mask NaN", func(s *Scenario) { s.MaskCost = nan }},
		{"mask Inf", func(s *Scenario) { s.MaskCost = inf }},
		{"wafers NaN", func(s *Scenario) { s.Wafers = nan }},
		{"wafers Inf", func(s *Scenario) { s.Wafers = inf }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := figure4Scenario(5000, 0.4)
			c.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate accepted a scenario with %s", c.name)
			}
			if _, err := s.TransistorCost(); err == nil {
				t.Fatalf("TransistorCost evaluated a scenario with %s", c.name)
			}
		})
	}
}

// TestSweepRejectsNonFiniteBounds: a sweep with poisoned bounds must fail
// loudly instead of producing a grid of NaN abscissas.
func TestSweepRejectsNonFiniteBounds(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	nan, inf := math.NaN(), math.Inf(1)

	for _, b := range [][2]float64{{nan, 2000}, {200, nan}, {200, inf}, {inf, 2000}, {2000, 200}} {
		if _, err := SweepSdCtx(context.Background(), s, b[0], b[1], 8); err == nil {
			t.Errorf("SweepSd accepted bounds [%v, %v]", b[0], b[1])
		}
		if _, err := SweepVolume(s, b[0], b[1], 8); err == nil {
			t.Errorf("SweepVolume accepted bounds [%v, %v]", b[0], b[1])
		}
	}
	for _, b := range [][2]float64{{nan, 0.9}, {0.1, nan}, {0, 0.9}, {0.1, 1.5}} {
		if _, err := SweepYieldCtx(context.Background(), s, b[0], b[1], 8); err == nil {
			t.Errorf("SweepYield accepted bounds [%v, %v]", b[0], b[1])
		}
	}
}

// TestSweepSdBelowPole: starting the grid at or below s_d0 is an
// out-of-domain request, not a 500-style internal failure.
func TestSweepSdBelowPole(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	lo := s.DesignCost.Sd0 - 10
	if _, err := SweepSdCtx(context.Background(), s, lo, 2000, 8); !errors.Is(err, ErrOutOfDomain) {
		t.Fatalf("SweepSdCtx(lo below s_d0): err = %v, want ErrOutOfDomain", err)
	}
}

// TestSweepYieldCurve: the 1/Y blow-up must be monotone decreasing in Y
// and every point finite.
func TestSweepYieldCurve(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	pts, err := SweepYieldCtx(context.Background(), s, 0.1, 1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 || pts[0].X != 0.1 || pts[9].X != 1.0 {
		t.Fatalf("grid endpoints wrong: %v .. %v (%d points)", pts[0].X, pts[len(pts)-1].X, len(pts))
	}
	for i, p := range pts {
		if math.IsNaN(p.Breakdown.Total) || math.IsInf(p.Breakdown.Total, 0) {
			t.Fatalf("point %d: non-finite total %v", i, p.Breakdown.Total)
		}
		if i > 0 && !(p.Breakdown.Total < pts[i-1].Breakdown.Total) {
			t.Fatalf("cost did not fall as yield rose: %v -> %v", pts[i-1].Breakdown.Total, p.Breakdown.Total)
		}
	}
}

// TestSweepCtxCancellation: an expired context aborts the sweep with the
// context's error rather than a partial result.
func TestSweepCtxCancellation(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepSdCtx(ctx, s, 200, 2000, 64); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
	}
}

// TestMonteCarloRejectsPoisonedDists runs the NaN/Inf table through the
// distribution constructors: validation must catch them before a single
// sample is drawn.
func TestMonteCarloRejectsPoisonedDists(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := figure4Scenario(5000, 0.4)
	cases := []struct {
		name string
		u    UncertainScenario
	}{
		{"fixed NaN", UncertainScenario{Base: base, Yield: Fixed(nan)}},
		{"uniform NaN lo", UncertainScenario{Base: base, CmSq: Uniform(nan, 10)}},
		{"uniform NaN hi", UncertainScenario{Base: base, CmSq: Uniform(1, nan)}},
		{"uniform Inf hi", UncertainScenario{Base: base, Sd: Uniform(200, inf)}},
		{"uniform inverted", UncertainScenario{Base: base, Sd: Uniform(400, 200)}},
		{"lognormal NaN median", UncertainScenario{Base: base, CmSq: LogNormal(nan, 1.3)}},
		{"lognormal Inf median", UncertainScenario{Base: base, CmSq: LogNormal(inf, 1.3)}},
		{"lognormal NaN sigma", UncertainScenario{Base: base, CmSq: LogNormal(8, nan)}},
		{"lognormal sigma < 1", UncertainScenario{Base: base, CmSq: LogNormal(8, 0.5)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.u.MonteCarloRun(128, 1, 0); err == nil {
				t.Fatalf("MonteCarloRun accepted %s", c.name)
			}
		})
	}
}

// TestMonteCarloSamplesAllFinite: every accepted sample of a healthy run
// is finite — the engine's promise to the quantile stage.
func TestMonteCarloSamplesAllFinite(t *testing.T) {
	base := figure4Scenario(5000, 0.4)
	u := UncertainScenario{
		Base:  base,
		Yield: Uniform(0.2, 0.9),
		CmSq:  LogNormal(8, 1.3),
		Sd:    Uniform(150, 500),
	}
	run, err := u.MonteCarloRun(2048, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Samples) != 2048 {
		t.Fatalf("got %d samples, want 2048", len(run.Samples))
	}
	for i, v := range run.Samples {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("sample %d = %v, want finite positive", i, v)
		}
	}
}

// TestMonteCarloPoleStraddlingDist: an s_d distribution straddling the
// eq (6) pole must report its rejections via Redraws rather than emit
// non-finite costs.
func TestMonteCarloPoleStraddlingDist(t *testing.T) {
	base := figure4Scenario(5000, 0.4)
	u := UncertainScenario{
		Base: base,
		// Half the mass below s_d0 = 100: roughly every second draw is
		// rejected and redrawn.
		Sd: Uniform(0, 200),
	}
	run, err := u.MonteCarloRun(512, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Redraws == 0 {
		t.Fatal("straddling distribution reported zero redraws")
	}
	for i, v := range run.Samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sample %d = %v leaked past the domain rejection", i, v)
		}
	}
}

// TestOptimalSdErrorMentionsDomain: the optimizer's failure mode on an
// empty domain is a descriptive error, not a panic from the grid search.
func TestOptimalSdDomainError(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	if _, err := OptimalSd(s, s.DesignCost.Sd0/2); err == nil ||
		!strings.Contains(err.Error(), "sdMax") {
		t.Fatalf("OptimalSd with sdMax below s_d0: err = %v, want sdMax domain error", err)
	}
	opt, err := OptimalSd(s, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !(opt.Sd > s.DesignCost.Sd0) || math.IsNaN(opt.Breakdown.Total) {
		t.Fatalf("optimum %+v outside the valid domain", opt)
	}
}
