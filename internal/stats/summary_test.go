package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 {
		t.Fatalf("N = %d, want 8", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	if !almostEqual(s.Variance, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", s.Variance, 32.0/7.0)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Fatalf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3 || s.Median != 3 || s.Variance != 0 || s.StdDev != 0 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMeanStderr(t *testing.T) {
	mean, se, err := MeanStderr([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mean, 2.5, 1e-12) {
		t.Fatalf("mean = %v", mean)
	}
	wantSE := math.Sqrt(5.0/3.0) / 2
	if !almostEqual(se, wantSE, 1e-12) {
		t.Fatalf("stderr = %v, want %v", se, wantSE)
	}
}

// Property: min <= median <= max and min <= mean <= max for any non-empty
// sample of finite values.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean+1e-9*math.Abs(s.Mean) && s.Mean <= s.Max+1e-9*math.Abs(s.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
