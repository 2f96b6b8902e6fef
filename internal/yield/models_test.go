package yield

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestYieldAtZeroIsOne(t *testing.T) {
	models := []Model{Poisson{}, Murphy{}, Seeds{}, NegBinomial{Alpha: 0.5}, NegBinomial{Alpha: 3}}
	for _, m := range models {
		if y := m.Yield(0); !almost(y, 1, 1e-12) {
			t.Errorf("%s.Yield(0) = %v, want 1", m.Name(), y)
		}
	}
}

func TestPoissonKnownValues(t *testing.T) {
	if y := (Poisson{}).Yield(1); !almost(y, 1/math.E, 1e-12) {
		t.Fatalf("Poisson(1) = %v, want 1/e", y)
	}
}

func TestMurphyClosedFormMatchesIntegral(t *testing.T) {
	for _, l := range []float64{0.1, 0.5, 1, 2, 5} {
		closed := (Murphy{}).Yield(l)
		integral, err := MurphyByIntegral(l)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(closed, integral, 1e-8) {
			t.Errorf("λ=%v: closed form %v vs integral %v", l, closed, integral)
		}
	}
}

func TestMurphyByIntegralEdgeCases(t *testing.T) {
	y, err := MurphyByIntegral(0)
	if err != nil || y != 1 {
		t.Fatalf("MurphyByIntegral(0) = %v, %v", y, err)
	}
	if _, err := MurphyByIntegral(-1); err == nil {
		t.Fatal("accepted negative lambda")
	}
}

func TestClassicalOrdering(t *testing.T) {
	// For all λ > 0: Poisson < Murphy < Seeds (Poisson is the most
	// pessimistic of the three because mixing always raises P(0)).
	for _, l := range []float64{0.1, 0.5, 1, 2, 4} {
		p := (Poisson{}).Yield(l)
		mu := (Murphy{}).Yield(l)
		s := (Seeds{}).Yield(l)
		if !(p < mu && mu < s) {
			t.Errorf("λ=%v: ordering violated: poisson %v murphy %v seeds %v", l, p, mu, s)
		}
	}
}

func TestNegBinomialLimits(t *testing.T) {
	// α → ∞ recovers Poisson; α = 1 is Seeds.
	for _, l := range []float64{0.3, 1, 3} {
		nb := NegBinomial{Alpha: 1e7}.Yield(l)
		if !almost(nb, (Poisson{}).Yield(l), 1e-6) {
			t.Errorf("λ=%v: NB(1e7) = %v, Poisson = %v", l, nb, (Poisson{}).Yield(l))
		}
		nb1 := NegBinomial{Alpha: 1}.Yield(l)
		if !almost(nb1, (Seeds{}).Yield(l), 1e-12) {
			t.Errorf("λ=%v: NB(1) = %v, Seeds = %v", l, nb1, (Seeds{}).Yield(l))
		}
	}
}

func TestNegBinomialClusteringHelps(t *testing.T) {
	// Stronger clustering (smaller α) concentrates defects on fewer die,
	// raising yield at fixed λ.
	for _, l := range []float64{0.5, 1, 2} {
		tight := NegBinomial{Alpha: 0.3}.Yield(l)
		loose := NegBinomial{Alpha: 5}.Yield(l)
		if tight <= loose {
			t.Errorf("λ=%v: clustered yield %v not above dispersed %v", l, tight, loose)
		}
	}
}

func TestNegBinomialPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NegBinomial with α=0 did not panic")
		}
	}()
	NegBinomial{}.Yield(1)
}

func TestLambda(t *testing.T) {
	l, err := Lambda(0.5, 2)
	if err != nil || l != 1 {
		t.Fatalf("Lambda(0.5, 2) = %v, %v", l, err)
	}
	if _, err := Lambda(-1, 2); err == nil {
		t.Fatal("accepted negative density")
	}
	if _, err := Lambda(1, -2); err == nil {
		t.Fatal("accepted negative area")
	}
}

// Property: every model is monotone decreasing in λ and bounded in (0, 1].
func TestModelMonotoneProperty(t *testing.T) {
	models := []Model{Poisson{}, Murphy{}, Seeds{}, NegBinomial{Alpha: 0.5}, NegBinomial{Alpha: 4}}
	f := func(a, b uint32) bool {
		l1 := float64(a%100000) / 1000 // [0, 100)
		dl := float64(b%10000)/1000 + 1e-6
		for _, m := range models {
			y1, y2 := m.Yield(l1), m.Yield(l1+dl)
			if !(y1 > 0 && y1 <= 1 && y2 > 0 && y2 <= 1) {
				return false
			}
			if y2 >= y1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
