package core

import (
	"math"
	"testing"
	"testing/quick"
)

func testProcess() Process {
	return Process{
		Name:         "cmos180",
		LambdaUM:     0.18,
		CostPerCM2:   8.0,
		Yield:        0.8,
		WaferAreaCM2: 300,
		MetalLayers:  6,
	}
}

func testDesign() Design {
	return Design{Name: "mpu", Transistors: 10e6, Sd: 300}
}

func TestSdFromLayoutMatchesTableA1Row(t *testing.T) {
	// Table A1 row 4: Pentium P54C, 1.48 cm², 0.6 µm, 3.1 M transistors,
	// s_d = 132.6.
	sd, err := SdFromLayout(1.48, 3.1e6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-132.6) > 0.5 {
		t.Fatalf("s_d = %v, want ≈132.6 (Table A1 row 4)", sd)
	}
}

func TestDieAreaInvertsLayout(t *testing.T) {
	area, err := DieArea(3.1e6, 0.6, 132.6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(area-1.48) > 0.01 {
		t.Fatalf("area = %v, want ≈1.48 cm²", area)
	}
}

func TestManufacturingCostEq3(t *testing.T) {
	p := testProcess()
	d := testDesign()
	// C_tr = 8 · (0.18e-4)² · 300 / 0.8
	want := 8.0 * math.Pow(0.18e-4, 2) * 300 / 0.8
	got, err := ManufacturingCostPerTransistor(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, want, 1e-15) {
		t.Fatalf("C_tr = %v, want %v", got, want)
	}
}

func TestManufacturingCostValidation(t *testing.T) {
	p := testProcess()
	d := testDesign()
	bad := p
	bad.Yield = 0
	if _, err := ManufacturingCostPerTransistor(bad, d); err == nil {
		t.Fatal("accepted zero yield")
	}
	bad = p
	bad.Yield = 1.5
	if _, err := ManufacturingCostPerTransistor(bad, d); err == nil {
		t.Fatal("accepted yield > 1")
	}
	badD := d
	badD.Transistors = -1
	if _, err := ManufacturingCostPerTransistor(p, badD); err == nil {
		t.Fatal("accepted negative transistor count")
	}
}

func TestEq1MatchesEq3(t *testing.T) {
	// Pricing via wafers (eq 1) must agree with pricing via cm² (eq 3)
	// when the wafer cost is CostPerCM2 · waferArea and the wafer holds
	// exactly waferArea/dieArea chips.
	p := testProcess()
	d := testDesign()
	area, err := d.AreaCM2(p.LambdaUM)
	if err != nil {
		t.Fatal(err)
	}
	chips := int(p.WaferAreaCM2 / area)
	waferCost := p.CostPerCM2 * float64(chips) * area // charge only the used area
	// eq (1): C_tr = C_w/(N_tr·N_ch·Y).
	eq1 := waferCost / (d.Transistors * float64(chips) * p.Yield)
	eq3, err := ManufacturingCostPerTransistor(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(eq1, eq3, 1e-9) {
		t.Fatalf("eq (1) = %v, eq (3) = %v", eq1, eq3)
	}
}

func TestRequiredSdForDieCostPaperConstants(t *testing.T) {
	// Figure 3 setup: C_ch = $34, C_sq = 8 $/cm², Y = 0.8. For a 1999-ish
	// node, λ = 0.18 µm with 24 M transistors:
	// s_d = 34·0.8/(8·(0.18e-4)²·24e6).
	p := Process{Name: "itrs99", LambdaUM: 0.18, CostPerCM2: 8, Yield: 0.8, WaferAreaCM2: 300}
	sd, err := RequiredSdForDieCost(34, p, 24e6)
	if err != nil {
		t.Fatal(err)
	}
	want := 34.0 * 0.8 / (8 * math.Pow(0.18e-4, 2) * 24e6)
	if !almost(sd, want, 1e-9) {
		t.Fatalf("required s_d = %v, want %v", sd, want)
	}
	// Sanity: the required density is a few hundred squares/transistor.
	if sd < 100 || sd > 1000 {
		t.Fatalf("required s_d = %v out of plausible range", sd)
	}
}

func TestRequiredSdConsistentWithDieCost(t *testing.T) {
	// Building a design with the required s_d must hit the target cost.
	p := testProcess()
	sd, err := RequiredSdForDieCost(34, p, 24e6)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := ManufacturingCostPerTransistor(p, Design{Name: "x", Transistors: 24e6, Sd: sd})
	if err != nil {
		t.Fatal(err)
	}
	if die := ctr * 24e6; !almost(die, 34, 1e-9) {
		t.Fatalf("die cost at required s_d = %v, want 34", die)
	}
}

// Property: eq (3) cost is strictly increasing in s_d and λ and strictly
// decreasing in Y over valid ranges.
func TestManufacturingCostMonotonicityProperty(t *testing.T) {
	f := func(a, b, c uint32) bool {
		sd := 30 + float64(a%100000)/100   // [30, 1030)
		lam := 0.05 + float64(b%1000)/1000 // [0.05, 1.05)
		y := 0.1 + 0.8*float64(c%1000)/1000
		p := Process{Name: "p", LambdaUM: lam, CostPerCM2: 8, Yield: y, WaferAreaCM2: 300}
		d := Design{Name: "d", Transistors: 1e7, Sd: sd}
		base, err := ManufacturingCostPerTransistor(p, d)
		if err != nil {
			return false
		}
		d2 := d
		d2.Sd = sd * 1.1
		up, err := ManufacturingCostPerTransistor(p, d2)
		if err != nil || up <= base {
			return false
		}
		p2 := p
		p2.LambdaUM = lam * 1.1
		up, err = ManufacturingCostPerTransistor(p2, d)
		if err != nil || up <= base {
			return false
		}
		p3 := p
		p3.Yield = math.Min(1, y*1.1)
		dn, err := ManufacturingCostPerTransistor(p3, d)
		if err != nil || dn >= base {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
