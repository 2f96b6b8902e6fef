package designflow

import (
	"math"
	"testing"
)

func TestEstimateCongestionSingleNet(t *testing.T) {
	// Two pins in the same row, three columns apart: every vertical cut
	// between them carries exactly 1 horizontal crossing; no vertical
	// demand anywhere.
	n := &Netlist{Gates: 2, Depth: 2, Nets: []Net{{Pins: []int{0, 1}}}}
	p := &Placement{Cols: 5, Rows: 2, X: []int{0, 3}, Y: []int{0, 0}}
	cm, err := EstimateCongestion(n, p)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 3; x++ {
		if math.Abs(cm.H[0][x]-1) > 1e-12 {
			t.Fatalf("H[0][%d] = %v, want 1", x, cm.H[0][x])
		}
	}
	if cm.H[0][3] != 0 || cm.H[1][0] != 0 {
		t.Fatal("demand outside the net's box")
	}
	ph, pv := cm.Peak()
	if ph != 1 || pv != 0 {
		t.Fatalf("peaks = %v, %v", ph, pv)
	}
}

func TestEstimateCongestionBoxSpread(t *testing.T) {
	// A 2-pin net on a diagonal of a 3×3 box spreads horizontal demand
	// over 3 rows: each H edge inside gets 1/3.
	n := &Netlist{Gates: 2, Depth: 2, Nets: []Net{{Pins: []int{0, 1}}}}
	p := &Placement{Cols: 4, Rows: 4, X: []int{0, 2}, Y: []int{0, 2}}
	cm, err := EstimateCongestion(n, p)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y <= 2; y++ {
		for x := 0; x < 2; x++ {
			if math.Abs(cm.H[y][x]-1.0/3) > 1e-12 {
				t.Fatalf("H[%d][%d] = %v, want 1/3", y, x, cm.H[y][x])
			}
		}
	}
	// Total horizontal crossings conserved: w=2 cuts × 1 crossing each.
	var sum float64
	for y := range cm.H {
		for x := range cm.H[y] {
			sum += cm.H[y][x]
		}
	}
	if math.Abs(sum-2) > 1e-12 {
		t.Fatalf("total H demand = %v, want 2", sum)
	}
}

// meanDemand returns the average horizontal and vertical edge demand.
func meanDemand(cm *CongestionMap) (h, v float64) {
	for y := 0; y < cm.Rows; y++ {
		for x := 0; x < cm.Cols; x++ {
			h += cm.H[y][x]
			v += cm.V[y][x]
		}
	}
	n := float64(cm.Rows * cm.Cols)
	return h / n, v / n
}

func TestCongestionMeanPeakOrdering(t *testing.T) {
	n := testNetlist(t, 144, 3)
	p, err := InitialPlacement(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := EstimateCongestion(n, p)
	if err != nil {
		t.Fatal(err)
	}
	ph, pv := cm.Peak()
	mh, mv := meanDemand(cm)
	if ph < mh || pv < mv {
		t.Fatalf("peak (%v,%v) below mean (%v,%v)", ph, pv, mh, mv)
	}
	if ph <= 0 && pv <= 0 {
		t.Fatal("no demand at all")
	}
}

func TestPlacementReducesCongestion(t *testing.T) {
	n, err := GenerateNetlist(NetlistConfig{Gates: 144, AvgFanout: 2, Locality: 0.8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, err := InitialPlacement(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	before, err := EstimateCongestion(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Anneal(n, p, AnnealConfig{Moves: 50000, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	after, err := EstimateCongestion(n, p)
	if err != nil {
		t.Fatal(err)
	}
	bh, bv := meanDemand(before)
	ah, av := meanDemand(after)
	if ah+av >= bh+bv {
		t.Fatalf("annealing did not reduce mean congestion: %v vs %v", ah+av, bh+bv)
	}
}

func TestRoutability(t *testing.T) {
	n := testNetlist(t, 144, 9)
	p, err := InitialPlacement(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Generous supply: no inflation.
	rep, err := Routability(n, p, 1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AreaInflation != 1 || rep.SdWithRouting != 50 {
		t.Fatalf("generous supply inflated: %+v", rep)
	}
	// Starved supply: inflation kicks in and scales s_d.
	starved, err := Routability(n, p, 0.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if starved.AreaInflation <= 1 {
		t.Fatalf("starved supply not inflated: %+v", starved)
	}
	if math.Abs(starved.SdWithRouting-50*starved.AreaInflation) > 1e-9 {
		t.Fatalf("s_d not scaled by inflation: %+v", starved)
	}
	if starved.PeakDemand != rep.PeakDemand {
		t.Fatal("peak demand should not depend on supply")
	}
}

func TestRoutabilityValidation(t *testing.T) {
	n := testNetlist(t, 20, 1)
	p, err := InitialPlacement(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Routability(n, p, 0, 50); err == nil {
		t.Fatal("accepted zero track supply")
	}
	if _, err := Routability(n, p, 1, 0); err == nil {
		t.Fatal("accepted zero intrinsic s_d")
	}
}
