package yield

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestDefectSizeDistNormalized(t *testing.T) {
	d := DefaultDefectSizeDist(0.25)
	integral, err := stats.Integrate(d.Density, 0, d.X0*2000, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Fatalf("size density integrates to %v, want 1", integral)
	}
}

func TestDefectSizeDistShape(t *testing.T) {
	d := DefectSizeDist{X0: 1, P: 3}
	// Rising below the peak, falling above.
	if !(d.Density(0.2) < d.Density(0.8)) {
		t.Fatal("density not rising below peak")
	}
	if !(d.Density(2) > d.Density(4)) {
		t.Fatal("density not falling above peak")
	}
	// 1/x³ decade decay above peak: f(10)/f(100) = 1000.
	ratio := d.Density(10) / d.Density(100)
	if math.Abs(ratio-1000) > 1 {
		t.Fatalf("power-law decade ratio = %v, want 1000", ratio)
	}
	if d.Density(0) != 0 || d.Density(-1) != 0 {
		t.Fatal("density not zero for non-positive sizes")
	}
}

func TestDefectSizeDistMean(t *testing.T) {
	d := DefectSizeDist{X0: 1, P: 3}
	mean, err := d.Mean()
	if err != nil {
		t.Fatal(err)
	}
	// k = 1/(1/2 + 1/2) = 1; mean = 1/3 + 1/1 = 4/3.
	if math.Abs(mean-4.0/3.0) > 1e-12 {
		t.Fatalf("mean = %v, want 4/3", mean)
	}
	// Diverging mean for P = 2.
	if _, err := (DefectSizeDist{X0: 1, P: 2}).Mean(); err == nil {
		t.Fatal("accepted diverging mean")
	}
}

func TestDefectSizeSampleMatchesMean(t *testing.T) {
	d := DefectSizeDist{X0: 1, P: 3.5}
	want, err := d.Mean()
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(777)
	sizes := d.Sampler()
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := sizes.Sample(r)
		if x <= 0 {
			t.Fatalf("sampled non-positive size %v", x)
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("sample mean = %v, analytic %v", got, want)
	}
}

// sampleSize is the unprepared inverse-transform draw, every constant
// recomputed per call: the reference SizeSampler must match bit for bit.
func sampleSize(d DefectSizeDist, r *stats.RNG) float64 {
	k := d.norm()
	pBelow := k * d.X0 * d.X0 / 2
	u := r.Float64()
	if u < pBelow {
		return math.Sqrt(2 * u / k)
	}
	rest := u - pBelow
	c := k * math.Pow(d.X0, d.P+1) / (d.P - 1)
	inner := math.Pow(d.X0, 1-d.P) - rest/c
	return math.Pow(inner, 1/(1-d.P))
}

func TestSizeSamplerMatchesReference(t *testing.T) {
	for _, d := range []DefectSizeDist{{X0: 0.5, P: 3}, {X0: 1, P: 3.5}, {X0: 2, P: 3}, {X0: 0.09, P: 1.7}, {X0: 3, P: 5.25}} {
		sizes := d.Sampler()
		a, b := stats.NewRNG(31), stats.NewRNG(31)
		for i := 0; i < 50000; i++ {
			got, want := sizes.Sample(a), sampleSize(d, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v draw %d: prepared %v, reference %v", d, i, got, want)
			}
		}
	}
}

func TestAverageCriticalArea(t *testing.T) {
	// With A_c(x) = 1 everywhere the average is 1 (density normalized).
	d := DefectSizeDist{X0: 1, P: 3}
	avg, err := AverageCriticalArea(d, func(x float64) float64 { return 1 }, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-1) > 1e-3 {
		t.Fatalf("constant critical area averaged to %v, want 1", avg)
	}
	if _, err := AverageCriticalArea(d, func(x float64) float64 { return 1 }, 0); err == nil {
		t.Fatal("accepted zero xMax")
	}
	bad := DefectSizeDist{X0: 0, P: 3}
	if _, err := AverageCriticalArea(bad, func(x float64) float64 { return 1 }, 10); err == nil {
		t.Fatal("accepted invalid distribution")
	}
}
