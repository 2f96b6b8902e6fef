package itrs

import (
	"math"
	"testing"
)

func TestNodesChronologicalAndValid(t *testing.T) {
	nodes := Nodes()
	if len(nodes) < 5 {
		t.Fatalf("roadmap has %d nodes, want at least 5", len(nodes))
	}
	for i, n := range nodes {
		if err := n.Validate(); err != nil {
			t.Fatalf("node %d invalid: %v", i, err)
		}
		if i > 0 {
			prev := nodes[i-1]
			if n.Year <= prev.Year {
				t.Fatalf("years not increasing at index %d", i)
			}
			if n.LambdaUM >= prev.LambdaUM {
				t.Fatalf("feature size not shrinking at index %d", i)
			}
			if n.Transistors <= prev.Transistors {
				t.Fatalf("transistor count not growing at index %d", i)
			}
		}
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	a := Nodes()
	a[0].Transistors = -1
	b := Nodes()
	if b[0].Transistors == -1 {
		t.Fatal("Nodes exposes internal state")
	}
}

func TestMooreDoubling(t *testing.T) {
	// Reconstruction law: ×2 functions every 2 years → ×2.83 per 3-year
	// node, within rounding.
	nodes := Nodes()
	for i := 1; i < len(nodes); i++ {
		years := float64(nodes[i].Year - nodes[i-1].Year)
		growth := nodes[i].Transistors / nodes[i-1].Transistors
		want := math.Pow(2, years/2)
		if math.Abs(growth/want-1) > 0.05 {
			t.Errorf("%d→%d: growth %v, Moore says %v", nodes[i-1].Year, nodes[i].Year, growth, want)
		}
	}
}

func TestDensityGrows(t *testing.T) {
	nodes := Nodes()
	for i := 1; i < len(nodes); i++ {
		density := func(n Node) float64 { return n.Transistors / n.DieAreaCM2 }
		if density(nodes[i]) <= density(nodes[i-1]) {
			t.Fatalf("density not growing at %d", nodes[i].Year)
		}
	}
}

func TestDeriveFirstNode(t *testing.T) {
	n := Nodes()[0]
	if n.Year != 1999 {
		t.Fatalf("first roadmap node is %d, want 1999", n.Year)
	}
	d, err := Derive(n)
	if err != nil {
		t.Fatal(err)
	}
	// Implied s_d = 1.70/(21e6·(0.18e-4 cm)²) ≈ 250.
	if math.Abs(d.ImpliedSd-250) > 2 {
		t.Fatalf("implied s_d = %v, want ≈250", d.ImpliedSd)
	}
	// Required s_d = 34·0.8/(8·λ²·21e6) ≈ 500.
	if math.Abs(d.RequiredSd-500) > 3 {
		t.Fatalf("required s_d = %v, want ≈500", d.RequiredSd)
	}
	// Ratio = dieArea·Csq/(target·Y) = 1.7·8/27.2 = 0.5.
	if math.Abs(d.Ratio-0.5) > 0.01 {
		t.Fatalf("ratio = %v, want 0.5", d.Ratio)
	}
	// Roadmap die manufacturing cost = 8·1.7/0.8 = $17.
	if math.Abs(d.DieCost-17) > 0.01 {
		t.Fatalf("die cost = %v, want 17", d.DieCost)
	}
}

func TestDeriveAllPaperShapes(t *testing.T) {
	rows, err := DeriveAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		// Figure 2 shape: the ITRS-implied s_d falls monotonically — the
		// roadmap assumes ever-denser design.
		if rows[i].ImpliedSd >= rows[i-1].ImpliedSd {
			t.Errorf("implied s_d not falling at %d: %v after %v", rows[i].Year, rows[i].ImpliedSd, rows[i-1].ImpliedSd)
		}
		// Figure 3 shape: the required s_d falls even faster...
		if rows[i].RequiredSd >= rows[i-1].RequiredSd {
			t.Errorf("required s_d not falling at %d", rows[i].Year)
		}
		// ...so the implied/required ratio rises toward 1.
		if rows[i].Ratio <= rows[i-1].Ratio {
			t.Errorf("ratio not rising at %d", rows[i].Year)
		}
	}
	last := rows[len(rows)-1]
	if last.Ratio <= 0.85 || last.Ratio > 1.05 {
		t.Fatalf("terminal ratio = %v, want approaching 1", last.Ratio)
	}
	// The cost contradiction: by the end of the roadmap the required s_d
	// drops to the full-custom limit (≈100) that industrial designs
	// (s_d ≈ 300+, Table A1) cannot approach.
	if last.RequiredSd > 110 {
		t.Fatalf("terminal required s_d = %v, want ≤ ~100 (infeasible territory)", last.RequiredSd)
	}
}

func TestDeriveValidation(t *testing.T) {
	if _, err := Derive(Node{Year: 1999}); err == nil {
		t.Fatal("accepted invalid node")
	}
}
