package yield

import (
	"math"
	"testing"
)

func TestRedundancyZeroSparesIsPoisson(t *testing.T) {
	for _, l := range []float64{0.1, 1, 3} {
		y, err := (Redundancy{}).Yield(l)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(y, (Poisson{}).Yield(l), 1e-12) {
			t.Fatalf("λ=%v: zero-spare yield %v != Poisson %v", l, y, (Poisson{}).Yield(l))
		}
	}
}

func TestRedundancyKnownValue(t *testing.T) {
	// λ=2, 2 spares: e^{-2}(1 + 2 + 2) = 5e^{-2}.
	y, err := (Redundancy{Spares: 2}).Yield(2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(y, 5*math.Exp(-2), 1e-12) {
		t.Fatalf("yield = %v, want %v", y, 5*math.Exp(-2))
	}
}

func TestRedundancyMonotoneInSpares(t *testing.T) {
	prev := 0.0
	for s := 0; s <= 10; s++ {
		y, err := (Redundancy{Spares: s}).Yield(3)
		if err != nil {
			t.Fatal(err)
		}
		if y <= prev {
			t.Fatalf("yield not increasing at %d spares", s)
		}
		if y > 1 {
			t.Fatalf("yield %v above 1", y)
		}
		prev = y
	}
	// Many spares → near certainty.
	y, _ := (Redundancy{Spares: 40}).Yield(3)
	if y < 0.999999 {
		t.Fatalf("40 spares at λ=3 yield %v, want ≈1", y)
	}
}

func TestRedundancyEdgeCases(t *testing.T) {
	y, err := (Redundancy{Spares: 5}).Yield(0)
	if err != nil || y != 1 {
		t.Fatalf("λ=0 yield = %v, %v", y, err)
	}
	if _, err := (Redundancy{Spares: -1}).Yield(1); err == nil {
		t.Fatal("accepted negative spares")
	}
	if _, err := (Redundancy{}).Yield(-1); err == nil {
		t.Fatal("accepted negative lambda")
	}
}

func TestSparesForYield(t *testing.T) {
	s, err := SparesForYield(3, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	yAt, _ := (Redundancy{Spares: s}).Yield(3)
	if yAt < 0.9 {
		t.Fatalf("%d spares reach only %v", s, yAt)
	}
	if s > 0 {
		yBelow, _ := (Redundancy{Spares: s - 1}).Yield(3)
		if yBelow >= 0.9 {
			t.Fatalf("%d spares not minimal", s)
		}
	}
	if _, err := SparesForYield(3, 1.5, 10); err == nil {
		t.Fatal("accepted target > 1")
	}
	if _, err := SparesForYield(50, 0.999, 3); err == nil {
		t.Fatal("accepted unreachable target")
	}
	if _, err := SparesForYield(-1, 0.9, 10); err == nil {
		t.Fatal("accepted negative lambda")
	}
}

func TestRepairEconomics(t *testing.T) {
	// Dense fabric at λ=3 (raw Poisson yield ≈ 5%): 6 spares at 5% area
	// overhead must pay decisively.
	mult, err := RepairEconomics(3, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if mult >= 1 {
		t.Fatalf("repair multiplier %v, want < 1 (repair pays)", mult)
	}
	// Nearly defect-free structure: carrying spare area is pure waste.
	mult, err = RepairEconomics(0.01, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if mult <= 1 {
		t.Fatalf("repair multiplier %v at λ=0.01, want > 1 (overhead wasted)", mult)
	}
	if _, err := RepairEconomics(1, 1, -0.1); err == nil {
		t.Fatal("accepted negative spare fraction")
	}
	if _, err := RepairEconomics(-1, 1, 0.1); err == nil {
		t.Fatal("accepted negative lambda")
	}
}
