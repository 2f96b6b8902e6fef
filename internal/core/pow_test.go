package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestPreparedPowMatchesMathPow holds fixedPow to math.Pow bit for bit:
// on bases drawn across every binade, and on the bases where math.Pow
// or its final scaling leaves the general branch.
func TestPreparedPowMatchesMathPow(t *testing.T) {
	const seed = 20260
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-310, 0x1p-1022, 0x1p-1022 * (1 - 0x1p-52),
		1, math.Nextafter(1, 0), math.Nextafter(1, 2), 2, 0.5,
		1e-300, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		-1, -2.5, -1e-300,
	}
	for _, y := range []float64{0, 0.5, -0.5, 1, 1.2, -1.2, 1.5, 2, 2.5, 3, 7.3, -7.3, 64.75, 0.3, 0.75, -0.75} {
		p := newFixedPow(y)
		check := func(x float64) {
			t.Helper()
			if got, want := p.pow(x), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: Pow(%v, %v): prepared %v (%#x), math.Pow %v (%#x)",
					seed, x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, x := range edges {
			check(x)
		}
		r := stats.NewRNG(seed)
		for e := -1074; e <= 1023; e++ {
			for i := 0; i < 16; i++ {
				check(math.Ldexp(1+r.Float64(), e))
			}
		}
	}
}
