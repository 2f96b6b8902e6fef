package core

import (
	"math"
	"testing"
)

func testFamily() Family {
	return Family{Products: 4, SharedFraction: 0.7, ReuseEfficiency: 0.9}
}

func TestFamilyValidate(t *testing.T) {
	if err := testFamily().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Family{
		{Products: 0, SharedFraction: 0.5, ReuseEfficiency: 0.5},
		{Products: 1, SharedFraction: -0.1, ReuseEfficiency: 0.5},
		{Products: 1, SharedFraction: 1.5, ReuseEfficiency: 0.5},
		{Products: 1, SharedFraction: 0.5, ReuseEfficiency: -0.1},
		{Products: 1, SharedFraction: 0.5, ReuseEfficiency: 1.5},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: invalid family accepted", i)
		}
	}
}

func TestFamilySingleProductIsStandalone(t *testing.T) {
	f := Family{Products: 1, SharedFraction: 0.9, ReuseEfficiency: 0.9}
	got, err := f.DesignCostPerProduct(100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("single-product cost = %v, want 100", got)
	}
	m, err := f.EffectiveVolumeMultiplier()
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 {
		t.Fatalf("single-product multiplier = %v, want 1", m)
	}
}

func TestFamilyAmortization(t *testing.T) {
	f := testFamily() // s·e = 0.63
	per, err := f.DesignCostPerProduct(100)
	if err != nil {
		t.Fatal(err)
	}
	// (1 + 3·0.37)/4 = 0.5275 of standalone.
	if math.Abs(per-52.75) > 1e-9 {
		t.Fatalf("per-product = %v, want 52.75", per)
	}
	mult, err := f.EffectiveVolumeMultiplier()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mult-100/52.75) > 1e-9 {
		t.Fatalf("multiplier = %v, want %v (inverse of the cost ratio)", mult, 100/52.75)
	}
	// Saturation: the per-product cost approaches standalone·(1−s·e).
	huge := Family{Products: 10000, SharedFraction: 0.7, ReuseEfficiency: 0.9}
	per, err = huge.DesignCostPerProduct(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(per-37) > 0.1 {
		t.Fatalf("asymptotic per-product = %v, want ≈37", per)
	}
}

func TestFamilyMonotoneInSize(t *testing.T) {
	prev := math.Inf(1)
	for k := 1; k <= 10; k++ {
		f := Family{Products: k, SharedFraction: 0.7, ReuseEfficiency: 0.9}
		per, err := f.DesignCostPerProduct(100)
		if err != nil {
			t.Fatal(err)
		}
		if per >= prev {
			t.Fatalf("per-product cost not falling at K=%d", k)
		}
		prev = per
	}
}

func TestFamilyNoReuseNoBenefit(t *testing.T) {
	f := Family{Products: 8, SharedFraction: 0.7, ReuseEfficiency: 0}
	per, err := f.DesignCostPerProduct(100)
	if err != nil {
		t.Fatal(err)
	}
	if per != 100 {
		t.Fatalf("zero-efficiency family cost = %v, want 100", per)
	}
}

func TestFamilyTransistorCost(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	solo, err := s.TransistorCost()
	if err != nil {
		t.Fatal(err)
	}
	fam, err := FamilyTransistorCost(s, testFamily())
	if err != nil {
		t.Fatal(err)
	}
	if fam.Total >= solo.Total {
		t.Fatalf("family member cost %v not below standalone %v", fam.Total, solo.Total)
	}
	// Manufacturing share untouched; only the design share shrinks.
	if math.Abs(fam.Manufacturing-solo.Manufacturing) > 1e-18 {
		t.Fatal("family changed the manufacturing share")
	}
	if fam.DesignDE >= solo.DesignDE {
		t.Fatalf("family design cost %v not below standalone %v", fam.DesignDE, solo.DesignDE)
	}
	// Consistency with the amortization formula.
	per, _ := testFamily().DesignCostPerProduct(solo.DesignDE)
	if math.Abs(fam.DesignDE-per) > 1e-6 {
		t.Fatalf("family C_DE = %v, formula %v", fam.DesignDE, per)
	}
}

func TestFamilyTransistorCostValidation(t *testing.T) {
	bad := figure4Scenario(0, 0.8)
	if _, err := FamilyTransistorCost(bad, testFamily()); err == nil {
		t.Fatal("accepted invalid scenario")
	}
	s := figure4Scenario(5000, 0.8)
	if _, err := FamilyTransistorCost(s, Family{}); err == nil {
		t.Fatal("accepted invalid family")
	}
}

func TestDesignCostPerProductRejectsNegative(t *testing.T) {
	if _, err := testFamily().DesignCostPerProduct(-1); err == nil {
		t.Fatal("accepted negative standalone cost")
	}
}
