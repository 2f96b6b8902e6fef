package designflow

import (
	"math"
	"testing"
)

func testNetlist(t *testing.T, gates int, seed uint64) *Netlist {
	t.Helper()
	n, err := GenerateNetlist(NetlistConfig{Gates: gates, AvgFanout: 2.5, Locality: 0.6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGenerateNetlistStructure(t *testing.T) {
	n := testNetlist(t, 200, 1)
	if n.Gates != 200 {
		t.Fatalf("gates = %d", n.Gates)
	}
	if n.Depth < 2 {
		t.Fatalf("depth = %d", n.Depth)
	}
	if len(n.Nets) < 150 {
		t.Fatalf("nets = %d, want ≈ gates", len(n.Nets))
	}
	var pins int
	for _, net := range n.Nets {
		if len(net.Pins) < 2 {
			t.Fatal("degenerate net")
		}
		pins += len(net.Pins)
	}
	avg := float64(pins)/float64(len(n.Nets)) - 1
	if math.Abs(avg-2.5) > 0.5 {
		t.Fatalf("average fanout = %v, want ≈2.5", avg)
	}
}

func TestGenerateNetlistDeterministic(t *testing.T) {
	a := testNetlist(t, 100, 9)
	b := testNetlist(t, 100, 9)
	if len(a.Nets) != len(b.Nets) {
		t.Fatal("same seed, different net counts")
	}
	for i := range a.Nets {
		if len(a.Nets[i].Pins) != len(b.Nets[i].Pins) {
			t.Fatal("same seed, different nets")
		}
		for j := range a.Nets[i].Pins {
			if a.Nets[i].Pins[j] != b.Nets[i].Pins[j] {
				t.Fatal("same seed, different pins")
			}
		}
	}
}

func TestNetlistConfigValidation(t *testing.T) {
	bad := []NetlistConfig{
		{Gates: 1, AvgFanout: 2, Locality: 0.5},
		{Gates: 10, AvgFanout: 0.5, Locality: 0.5},
		{Gates: 10, AvgFanout: 2, Locality: 1},
		{Gates: 10, AvgFanout: 2, Locality: -0.1},
	}
	for i, c := range bad {
		if _, err := GenerateNetlist(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLocalityShortensWires(t *testing.T) {
	// Local netlists should place to lower wirelength than global ones.
	mk := func(locality float64) float64 {
		n, err := GenerateNetlist(NetlistConfig{Gates: 144, AvgFanout: 2, Locality: locality, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		p, err := InitialPlacement(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Anneal(n, p, AnnealConfig{Moves: 40000, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		wl, err := HPWL(n, p)
		if err != nil {
			t.Fatal(err)
		}
		return wl / float64(len(n.Nets))
	}
	local := mk(0.9)
	global := mk(0.0)
	if local >= global {
		t.Fatalf("local avg net WL %v not below global %v", local, global)
	}
}

func TestInitialPlacementValid(t *testing.T) {
	n := testNetlist(t, 77, 2)
	p, err := InitialPlacement(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(n.Gates); err != nil {
		t.Fatal(err)
	}
	// All sites distinct.
	seen := map[[2]int]bool{}
	for i := range p.X {
		k := [2]int{p.X[i], p.Y[i]}
		if seen[k] {
			t.Fatal("two gates share a site")
		}
		seen[k] = true
	}
}

func TestHPWLKnownValue(t *testing.T) {
	n := &Netlist{Gates: 3, Depth: 2, Nets: []Net{{Pins: []int{0, 1, 2}}}}
	p := &Placement{Cols: 4, Rows: 4, X: []int{0, 3, 1}, Y: []int{0, 2, 1}}
	wl, err := HPWL(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if wl != 5 { // (3-0) + (2-0)
		t.Fatalf("HPWL = %v, want 5", wl)
	}
}

func TestAnnealImprovesWirelength(t *testing.T) {
	n := testNetlist(t, 196, 7)
	p, err := InitialPlacement(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anneal(n, p, AnnealConfig{Moves: 60000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final >= res.Initial {
		t.Fatalf("annealing did not improve: %v → %v", res.Initial, res.Final)
	}
	if res.Final > 0.8*res.Initial {
		t.Fatalf("annealing improved only %v → %v, want at least 20%%", res.Initial, res.Final)
	}
	if err := p.Validate(n.Gates); err != nil {
		t.Fatalf("anneal corrupted placement: %v", err)
	}
	if res.Accepts <= 0 || res.Accepts > res.Moves {
		t.Fatalf("accepts = %d of %d", res.Accepts, res.Moves)
	}
	// Occupancy still injective.
	seen := map[[2]int]bool{}
	for i := range p.X {
		k := [2]int{p.X[i], p.Y[i]}
		if seen[k] {
			t.Fatal("anneal placed two gates on one site")
		}
		seen[k] = true
	}
}

func TestAnnealValidation(t *testing.T) {
	n := testNetlist(t, 20, 1)
	p, err := InitialPlacement(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Anneal(n, p, AnnealConfig{Cooling: 1.5}); err == nil {
		t.Fatal("accepted cooling > 1")
	}
}

func defaultClosure() ClosureConfig {
	return ClosureConfig{
		InitialOvershoot: 0.5,
		Tolerance:        0.02,
		ResidualFloor:    0.1,
		Seed:             13,
	}
}

func TestSimulateClosureConvergesFastWithPerfectPrediction(t *testing.T) {
	c := defaultClosure()
	c.Sigma = 0
	res, err := SimulateClosure(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("perfect prediction did not converge")
	}
	if res.Iterations > 3 {
		t.Fatalf("perfect prediction took %d iterations", res.Iterations)
	}
}

func TestIterationsGrowWithSigma(t *testing.T) {
	c := defaultClosure()
	prev := 0.0
	for _, sigma := range []float64{0, 0.2, 0.5, 0.9} {
		c.Sigma = sigma
		mean, err := MeanIterations(c, 400)
		if err != nil {
			t.Fatal(err)
		}
		if mean <= prev {
			t.Fatalf("mean iterations %v at σ=%v not above %v", mean, sigma, prev)
		}
		prev = mean
	}
}

func TestClosureValidation(t *testing.T) {
	bad := []ClosureConfig{
		{InitialOvershoot: 0, Tolerance: 0.01, ResidualFloor: 0.1},
		{InitialOvershoot: 0.5, Sigma: -1, Tolerance: 0.01, ResidualFloor: 0.1},
		{InitialOvershoot: 0.5, Tolerance: 0, ResidualFloor: 0.1},
		{InitialOvershoot: 0.5, Tolerance: 0.6, ResidualFloor: 0.1},
		{InitialOvershoot: 0.5, Tolerance: 0.01, ResidualFloor: 1},
	}
	for i, c := range bad {
		if _, err := SimulateClosure(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := MeanIterations(defaultClosure(), 0); err == nil {
		t.Fatal("accepted zero runs")
	}
}

func TestIterationCostModel(t *testing.T) {
	m := DefaultIterationCostModel()
	c, err := m.Cost(10e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1e7 {
		t.Fatalf("cost = %v, want 1e7", c)
	}
	// Linear in size at SizeExp = 1.
	c2, err := m.Cost(20e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c2-2*c) > 1e-6 {
		t.Fatalf("size scaling wrong: %v vs %v", c2, c)
	}
	if _, err := m.Cost(0, 10); err == nil {
		t.Fatal("accepted zero transistors")
	}
	if _, err := m.Cost(1e6, 0); err == nil {
		t.Fatal("accepted zero iterations")
	}
	if _, err := (IterationCostModel{}).Cost(1e6, 1); err == nil {
		t.Fatal("accepted invalid model")
	}
}

func TestRegularityDesignCostMonotone(t *testing.T) {
	// The §3.2 chain end to end: less regular → bigger sigma → more
	// iterations → more dollars.
	closure := defaultClosure()
	model := DefaultIterationCostModel()
	itLo, costLo, err := RegularityDesignCost(10e6, 0.05, closure, model, 300)
	if err != nil {
		t.Fatal(err)
	}
	itHi, costHi, err := RegularityDesignCost(10e6, 0.8, closure, model, 300)
	if err != nil {
		t.Fatal(err)
	}
	if itHi <= itLo || costHi <= costLo {
		t.Fatalf("irregular design not more expensive: %v/%v iterations, $%v/$%v", itLo, itHi, costLo, costHi)
	}
}
