package repro_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/experiments"
	"repro/internal/itrs"
	"repro/internal/wafer"
	"repro/internal/yield"
)

// The integration tests below check consistency ACROSS experiments and
// substrates — relationships no single package test can see.

// The X-1 optimum at the Figure 4a operating point must agree with the
// Figure 4a optimum itself (same scenario reached through two paths).
func TestOptimaAgreeAcrossExperiments(t *testing.T) {
	c := experiments.Figure4Cases()[0] // Nw=5000, Y=0.4
	curves, _, err := experiments.Figure4(c, 40)
	if err != nil {
		t.Fatal(err)
	}
	var fig4Opt float64
	for _, cv := range curves {
		if cv.LambdaUM == 0.18 {
			fig4Opt = cv.Optimum.Sd
		}
	}
	s, err := experiments.Figure4Scenario(c, 0.18)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.OptimalSd(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Sd-fig4Opt) > 0.5 {
		t.Fatalf("optima disagree: %v vs %v", direct.Sd, fig4Opt)
	}
}

// Figures 2 and 3 are two views of the same derivation: the experiment
// rows must match itrs.DeriveAll exactly.
func TestFigure2And3ShareTheDerivation(t *testing.T) {
	f2, _, err := experiments.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	f3, _, err := experiments.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	base, err := itrs.DeriveAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != len(base) || len(f3) != len(base) {
		t.Fatalf("row counts differ: %d, %d, %d", len(f2), len(f3), len(base))
	}
	for i := range base {
		if f2[i].ImpliedSd != base[i].ImpliedSd || f3[i].RequiredSd != base[i].RequiredSd {
			t.Fatalf("row %d diverged between figures", i)
		}
	}
}

// The required s_d that Figure 3 computes must reproduce the target die
// cost when pushed back through the eq (3) scenario — closing the loop
// between itrs and core.
func TestFigure3RoundTripsThroughEq3(t *testing.T) {
	rows, err := itrs.DeriveAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		p := core.Process{
			Name: "rt", LambdaUM: r.LambdaUM,
			CostPerCM2: itrs.CostPerCM2, Yield: itrs.Yield, WaferAreaCM2: 300,
		}
		ctr, err := core.ManufacturingCostPerTransistor(p, core.Design{
			Name: "rt", Transistors: r.Transistors, Sd: r.RequiredSd,
		})
		if err != nil {
			t.Fatal(err)
		}
		if die := ctr * r.Transistors; math.Abs(die-itrs.TargetDieCost) > 1e-6 {
			t.Fatalf("%d: required s_d reproduces $%v, want $%v", r.Year, die, itrs.TargetDieCost)
		}
	}
}

// Pricing a Table A1 device through eq (1) (wafer route, using the exact
// gross-die count) must agree with eq (3) (per-cm² route) up to the
// wafer-edge utilization the per-cm² model ignores.
func TestEq1AndEq3AgreeOnTableA1Device(t *testing.T) {
	d, err := devices.ByID(11) // Pentium III, 1.23 cm², 0.25 µm
	if err != nil {
		t.Fatal(err)
	}
	area := d.DieAreaCM2()
	chips, err := wafer.GrossDie(wafer.Wafer200, wafer.SquareDie(area))
	if err != nil {
		t.Fatal(err)
	}
	csq, err := devices.EraCostPerCM2(d.LambdaUM)
	if err != nil {
		t.Fatal(err)
	}
	waferCost := csq * math.Pi * 10 * 10 // the whole 200 mm wafer, in cm²
	// eq (1): C_tr = C_w/(N_tr·N_ch·Y).
	eq1 := waferCost / (d.TotalTransistors() * float64(chips) * 0.8)
	sd, err := d.SdTotal()
	if err != nil {
		t.Fatal(err)
	}
	eq3, err := core.ManufacturingCostPerTransistor(core.Process{
		Name: "x", LambdaUM: d.LambdaUM, CostPerCM2: csq, Yield: 0.8, WaferAreaCM2: 300,
	}, core.Design{Name: "x", Transistors: d.TotalTransistors(), Sd: sd})
	if err != nil {
		t.Fatal(err)
	}
	// eq (1) charges the whole wafer including unusable edge area, so it
	// sits a bounded amount above eq (3).
	if eq1 < eq3 {
		t.Fatalf("eq(1) %v below eq(3) %v — impossible", eq1, eq3)
	}
	if eq1 > 1.35*eq3 {
		t.Fatalf("eq(1) %v too far above eq(3) %v", eq1, eq3)
	}
}

// The yield substrate and the layout substrate must agree on the meaning
// of "critical fraction": feeding a layout-measured fraction into the
// analytic Poisson model matches the geometric Monte Carlo (established
// in package tests) — here we check the composed X-10 rows stay
// consistent with the raw models they quote.
func TestX10RowsInternallyConsistent(t *testing.T) {
	rows, _, err := experiments.LayoutYieldStudy(2.0, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want := (yield.Poisson{}).Yield(2.0 * r.CriticalFrac)
		if math.Abs(r.AnalyticYield-want) > 1e-12 {
			t.Fatalf("%s: analytic %v not Poisson(λ·cf) %v", r.Style, r.AnalyticYield, want)
		}
	}
}

// Utilization semantics must agree between the plain scenario (§2.5) and
// the X-3 experiment pair construction.
func TestUtilizationSemanticsConsistent(t *testing.T) {
	res, _, err := experiments.UtilizationCrossover(0.5, 10, 1e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	// At any volume, the FPGA's cost must be exactly 1/0.5 of what the
	// same scenario at u=1 would cost (the u·Y substitution), modulo its
	// different design economics — verify via the core model directly.
	s, err := experiments.Figure4Scenario(experiments.Figure4Case{Wafers: 1000, Yield: 0.8}, 0.18)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.TransistorCost()
	if err != nil {
		t.Fatal(err)
	}
	s.Utilization = 0.5
	half, err := s.TransistorCost()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.Total-2*full.Total) > 1e-15 {
		t.Fatalf("u=0.5 cost %v != 2× u=1 cost %v", half.Total, full.Total)
	}
	_ = res
}

// The regenerated Table A1 and the Figure 1 series must describe the same
// population.
func TestTableA1AndFigure1Consistent(t *testing.T) {
	rows, _, err := experiments.TableA1()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := experiments.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	withLogic := 0
	for _, r := range rows {
		if r.LogicTx > 0 {
			withLogic++
		}
	}
	if len(res.Points) != withLogic {
		t.Fatalf("Figure 1 has %d points, Table A1 has %d logic rows", len(res.Points), withLogic)
	}
}
