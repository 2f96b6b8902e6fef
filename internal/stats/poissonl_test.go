package stats

import (
	"math"
	"testing"
)

// PoissonL's contract: given expNegMean == exp(-mean), its draws AND its
// RNG stream consumption are bit-identical to Poisson. Both are checked —
// a count that matched while consuming a different number of variates
// would silently desynchronize every downstream draw.
func TestPoissonLMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{0, -1, 1e-9, 0.25, 1, 3.5, 29.999, 30, 64, 1000} {
		a := NewRNG(1234)
		b := NewRNG(1234)
		expNeg := math.Exp(-mean)
		for i := 0; i < 5000; i++ {
			ka := a.Poisson(mean)
			kb := b.PoissonL(mean, expNeg)
			if ka != kb {
				t.Fatalf("mean %v draw %d: Poisson %d, PoissonL %d", mean, i, ka, kb)
			}
		}
		// Stream states must still agree after all draws.
		for i := 0; i < 8; i++ {
			if ua, ub := a.Uint64(), b.Uint64(); ua != ub {
				t.Fatalf("mean %v: streams desynchronized after draws (%x vs %x)", mean, ua, ub)
			}
		}
	}
}

// poissonCountsRef is PoissonCounts' reference: n PoissonL calls.
func poissonCountsRef(r *RNG, n int, mean, expNegMean float64) (zeros, sum int64) {
	for i := 0; i < n; i++ {
		k := r.PoissonL(mean, expNegMean)
		if k == 0 {
			zeros++
		}
		sum += int64(k)
	}
	return zeros, sum
}

// checkPoissonCounts runs PoissonCounts and its reference from the same
// seed and requires the same tallies and the same stream afterwards.
func checkPoissonCounts(t *testing.T, seed uint64, n int, mean float64) {
	t.Helper()
	a, b := NewRNG(seed), NewRNG(seed)
	expNeg := math.Exp(-mean)
	gz, gs := a.PoissonCounts(n, mean, expNeg)
	wz, ws := poissonCountsRef(b, n, mean, expNeg)
	if gz != wz || gs != ws {
		t.Fatalf("seed %d mean %v n %d: PoissonCounts zeros %d sum %d, PoissonL zeros %d sum %d", seed, mean, n, gz, gs, wz, ws)
	}
	for i := 0; i < 8; i++ {
		if ua, ub := a.Uint64(), b.Uint64(); ua != ub {
			t.Fatalf("seed %d mean %v n %d: streams desynchronized after the counts (%x vs %x)", seed, mean, n, ua, ub)
		}
	}
}

func TestPoissonCountsMatchesPoissonL(t *testing.T) {
	for _, mean := range []float64{0, -1, 1e-9, 0.25, 0.9, 3.5, 29.999, 30, 64} {
		for _, n := range []int{0, 1, 2, 8191, 8192} {
			checkPoissonCounts(t, 1234, n, mean)
		}
	}
}

func FuzzPoissonCounts(f *testing.F) {
	for _, mean := range []float64{0, -1, 1e-9, 0.25, 0.9, 3.5, 29.999, 30, 64, math.NaN(), math.Inf(1), 1e-300} {
		f.Add(uint64(7), mean, uint16(8192))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mean float64, n uint16) {
		checkPoissonCounts(t, seed, int(n)%(1<<14+1), mean)
	})
}
