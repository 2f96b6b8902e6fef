package core

import (
	"math"
	"testing"
)

func TestDefectLevelWilliamsBrown(t *testing.T) {
	// Full coverage ships nothing.
	dl, err := DefectLevel(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dl != 0 {
		t.Fatalf("full coverage DL = %v", dl)
	}
	// Zero coverage ships the whole defective population.
	dl, err = DefectLevel(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dl-0.5) > 1e-12 {
		t.Fatalf("zero coverage DL = %v, want 0.5", dl)
	}
	// Textbook point: Y = 0.5, T = 0.9 → DL = 1 − 0.5^0.1 ≈ 6.7%.
	dl, err = DefectLevel(0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dl-(1-math.Pow(0.5, 0.1))) > 1e-12 {
		t.Fatalf("DL = %v", dl)
	}
	if _, err := DefectLevel(0, 0.5); err == nil {
		t.Fatal("accepted zero yield")
	}
	if _, err := DefectLevel(0.5, 1.5); err == nil {
		t.Fatal("accepted coverage > 1")
	}
}

func TestDefectLevelMonotone(t *testing.T) {
	prev := 1.0
	for _, cov := range []float64{0, 0.5, 0.9, 0.99, 0.999} {
		dl, err := DefectLevel(0.6, cov)
		if err != nil {
			t.Fatal(err)
		}
		if dl >= prev {
			t.Fatalf("DL not falling with coverage at %v", cov)
		}
		prev = dl
	}
	// Better yield ships fewer escapes at fixed coverage.
	lo, _ := DefectLevel(0.4, 0.95)
	hi, _ := DefectLevel(0.9, 0.95)
	if hi >= lo {
		t.Fatalf("higher yield did not reduce DL: %v vs %v", hi, lo)
	}
}

func TestTestEconomicsCostShape(t *testing.T) {
	e := DefaultTestEconomics()
	// U-shaped: low coverage pays escapes, high coverage pays tester time.
	low, err := e.CostAt(0.2, 10e6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := e.CostAt(0.95, 10e6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.CostAt(0.99995, 10e6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !(mid < low && mid < high) {
		t.Fatalf("cost not U-shaped: %v, %v, %v", low, mid, high)
	}
	if _, err := e.CostAt(1, 10e6, 0.6); err == nil {
		t.Fatal("accepted coverage of exactly 1")
	}
	if _, err := e.CostAt(-0.1, 10e6, 0.6); err == nil {
		t.Fatal("accepted negative coverage")
	}
}

func TestOptimalCoverage(t *testing.T) {
	e := DefaultTestEconomics()
	cov, cost, err := e.OptimalCoverage(10e6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if cov <= 0.5 || cov >= 1 {
		t.Fatalf("optimal coverage = %v, want high but below 1", cov)
	}
	// Neighbors are not cheaper.
	for _, dc := range []float64{-0.01, 0.01} {
		c, err := e.CostAt(cov+dc, 10e6, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if c < cost-1e-12 {
			t.Fatalf("neighbor %v beats optimum: %v vs %v", cov+dc, c, cost)
		}
	}
	// Pricier escapes push the optimum toward fuller coverage.
	exp := e
	exp.EscapeCost = 5000
	cov2, _, err := exp.OptimalCoverage(10e6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if cov2 <= cov {
		t.Fatalf("100x escape cost did not raise coverage: %v vs %v", cov2, cov)
	}
}

func TestTestEconomicsValidation(t *testing.T) {
	bad := DefaultTestEconomics()
	bad.RefCoverage = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted reference coverage of 1")
	}
	bad = DefaultTestEconomics()
	bad.CovExp = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero exponent")
	}
	bad = DefaultTestEconomics()
	bad.EscapeCost = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative escape cost")
	}
	bad = DefaultTestEconomics()
	bad.Test = TestCostModel{}
	if _, _, err := bad.OptimalCoverage(1e6, 0.5); err == nil {
		t.Fatal("accepted invalid test model")
	}
}
