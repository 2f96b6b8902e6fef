package yield

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// The vectorized simulators' single contract: bit-identical to the
// scalar loops they replaced. Each reference below is a faithful port of
// the pre-vectorization implementation, and the tests demand exact
// equality — never statistical closeness.

// scalarWaferMap is the pre-vectorization SimulateWaferMap hot loop: no
// site-factor table, no hoisted per-wafer product, exp recomputed inside
// every Poisson draw.
func scalarWaferMap(c WaferMapConfig) *WaferMap {
	cols := int(2 * c.UsableRadiusMM / c.DieWMM)
	rows := int(2 * c.UsableRadiusMM / c.DieHMM)
	wm := &WaferMap{Cols: cols, Rows: rows, Wafers: c.Wafers}
	wm.Good = make([][]int, rows)
	inside := make([][]bool, rows)
	r2 := c.UsableRadiusMM * c.UsableRadiusMM
	originX := -float64(cols) / 2 * c.DieWMM
	originY := -float64(rows) / 2 * c.DieHMM
	for y := 0; y < rows; y++ {
		wm.Good[y] = make([]int, cols)
		inside[y] = make([]bool, cols)
		for x := 0; x < cols; x++ {
			x0 := originX + float64(x)*c.DieWMM
			y0 := originY + float64(y)*c.DieHMM
			x1, y1 := x0+c.DieWMM, y0+c.DieHMM
			ok := x0*x0+y0*y0 <= r2 && x1*x1+y0*y0 <= r2 &&
				x0*x0+y1*y1 <= r2 && x1*x1+y1*y1 <= r2
			inside[y][x] = ok
			if !ok {
				wm.Good[y][x] = -1
			}
		}
	}
	scales := make([]float64, c.Wafers)
	wr := stats.NewRNG(stats.StreamSeed(c.Seed))
	for w := range scales {
		scales[w] = 1.0
		if c.ClusterAlpha > 0 {
			scales[w] = wr.Gamma(c.ClusterAlpha, 1/c.ClusterAlpha)
		}
	}
	edge := c.EdgeFactor
	if edge == 0 {
		edge = 1
	}
	for y := 0; y < rows; y++ {
		for w := 0; w < c.Wafers; w++ {
			r := stats.Seeded(stats.StreamSeed(c.Seed, uint64(w), uint64(y)))
			for x := 0; x < cols; x++ {
				if !inside[y][x] {
					continue
				}
				cx := originX + (float64(x)+0.5)*c.DieWMM
				cy := originY + (float64(y)+0.5)*c.DieHMM
				rho := math.Sqrt(cx*cx+cy*cy) / c.UsableRadiusMM
				rate := c.Lambda * scales[w] * (1 + (edge-1)*rho)
				if rate < 0 {
					rate = 0
				}
				if r.Poisson(rate) == 0 {
					wm.Good[y][x]++
				}
			}
		}
	}
	return wm
}

func sameMaps(t *testing.T, tag string, got, want *WaferMap) {
	t.Helper()
	if got.Cols != want.Cols || got.Rows != want.Rows || got.Wafers != want.Wafers {
		t.Fatalf("%s: shape (%d,%d,%d) vs (%d,%d,%d)", tag,
			got.Cols, got.Rows, got.Wafers, want.Cols, want.Rows, want.Wafers)
	}
	for y := range want.Good {
		for x := range want.Good[y] {
			if got.Good[y][x] != want.Good[y][x] {
				t.Fatalf("%s: Good[%d][%d] = %d, want %d", tag, y, x, got.Good[y][x], want.Good[y][x])
			}
		}
	}
}

func TestSimulateWaferMapMatchesScalarReference(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*WaferMapConfig)
	}{
		{"flat-unclustered", func(c *WaferMapConfig) {}},
		{"edge-gradient", func(c *WaferMapConfig) { c.EdgeFactor = 3 }},
		{"clustered", func(c *WaferMapConfig) { c.ClusterAlpha = 0.7; c.EdgeFactor = 2.5 }},
		{"zero-lambda", func(c *WaferMapConfig) { c.Lambda = 0 }},
		{"hot-center", func(c *WaferMapConfig) { c.EdgeFactor = 0.2 }},
	}
	for _, tc := range cases {
		c := mapConfig()
		tc.mod(&c)
		want := scalarWaferMap(c)
		got, err := SimulateWaferMap(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameMaps(t, tc.name, got, want)
	}
}

func TestSimulateWaferMapDeterministicAcrossWorkersAndTunerRegimes(t *testing.T) {
	c := mapConfig()
	c.ClusterAlpha = 0.7
	c.EdgeFactor = 3
	c.Workers = 1
	waferMapTuner.Reset()
	ref, err := SimulateWaferMap(c)
	if err != nil {
		t.Fatal(err)
	}
	defer waferMapTuner.Reset()
	regimes := []struct {
		name  string
		apply func()
	}{
		{"cold", func() { waferMapTuner.Reset() }},
		{"heavy", func() { waferMapTuner.Reset(); waferMapTuner.Observe(1, 10e-3) }},
		{"light", func() { waferMapTuner.Reset(); waferMapTuner.Observe(100000, 1e-3) }},
	}
	for _, rg := range regimes {
		for _, workers := range []int{1, 2, 4} {
			rg.apply()
			c.Workers = workers
			got, err := SimulateWaferMap(c)
			if err != nil {
				t.Fatal(err)
			}
			sameMaps(t, rg.name, got, ref)
		}
	}
}
