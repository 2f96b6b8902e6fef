package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summary routines that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds moment and order statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1 denominator); 0 when N < 2
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
}

// Summarize computes summary statistics of xs. It returns ErrEmpty when xs
// is empty. The input is not modified.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	return s, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation between closest ranks. It panics when
// sorted is empty or q is outside [0, 1]; callers own validation because the
// routine sits in inner loops. User-reachable paths (CLIs, HTTP handlers)
// should use QuantileE and report the error instead.
func Quantile(sorted []float64, q float64) float64 {
	v, err := QuantileE(sorted, q)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// QuantileE is the error-returning form of Quantile: it rejects an empty
// sample with ErrEmpty and a fraction outside [0, 1] (including NaN) with a
// descriptive error, instead of panicking.
func QuantileE(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("stats: Quantile of empty sample: %w", ErrEmpty)
	}
	if !(q >= 0 && q <= 1) {
		return 0, fmt.Errorf("stats: Quantile fraction must be in [0,1], got %v", q)
	}
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MeanStderr returns the sample mean and its standard error. It returns
// ErrEmpty for an empty sample; the standard error is zero when N < 2.
func MeanStderr(xs []float64) (mean, stderr float64, err error) {
	s, err := Summarize(xs)
	if err != nil {
		return 0, 0, err
	}
	if s.N > 1 {
		stderr = s.StdDev / math.Sqrt(float64(s.N))
	}
	return s.Mean, stderr, nil
}
