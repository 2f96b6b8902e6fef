package layout

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// indexLayout is a layout the defect index is held to IsFatal on.
type indexLayout struct {
	name string
	l    *Layout
}

// indexLayouts returns the textbook wire pair, the four styles of
// mcjob's layoutdefect kind and the three of X-10.
func indexLayouts(tb testing.TB) []indexLayout {
	tb.Helper()
	gens := []struct {
		name string
		gen  func() (*Layout, error)
	}{
		{"two-wires", func() (*Layout, error) { return twoWires(4), nil }},
		{"mcjob/sram", func() (*Layout, error) { return GenerateSRAMArray(32, 32) }},
		{"mcjob/datapath", func() (*Layout, error) { return GenerateDatapath(32, 8, 12) }},
		{"mcjob/asic-tight", func() (*Layout, error) {
			return GenerateRandomLogic(RandomLogicConfig{Cells: 600, RowUtil: 0.9, RouteTracks: 2})
		}},
		{"mcjob/asic-sparse", func() (*Layout, error) {
			return GenerateRandomLogic(RandomLogicConfig{Cells: 600, RowUtil: 0.35, RouteTracks: 10})
		}},
		{"x10/sram-array", func() (*Layout, error) { return GenerateSRAMArray(16, 16) }},
		{"x10/datapath", func() (*Layout, error) { return GenerateDatapath(16, 5, 12) }},
		{"x10/asic-sparse", func() (*Layout, error) {
			return GenerateRandomLogic(RandomLogicConfig{Cells: 250, RowUtil: 0.45, RouteTracks: 8, Seed: 1})
		}},
	}
	out := make([]indexLayout, len(gens))
	for i, g := range gens {
		l, err := g.gen()
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = indexLayout{g.name, l}
	}
	return out
}

// indexThrower prepares the thrower whose binned fatal test is checked.
func indexThrower(tb testing.TB, l *Layout) *DefectThrower {
	tb.Helper()
	dt, err := NewDefectThrower(l, Metal1, 1, fixedSize(1))
	if err != nil {
		tb.Fatal(err)
	}
	return dt
}

// The binned fatal test must reach IsFatal's verdict on every defect:
// centers up to two bins past every edge, sizes from 0 through one bin
// and many bins to larger than the layout, and the extremes the size
// sampler can return (1e14, +Inf) plus NaN.
func TestDefectIndexMatchesIsFatal(t *testing.T) {
	for _, il := range indexLayouts(t) {
		name, l := il.name, il.l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rects := l.LayerRects(Metal1)
			dt := indexThrower(t, l)
			side := 1 / dt.grid.inv
			if name != "two-wires" && dt.grid.nx*dt.grid.ny < 64 {
				t.Fatalf("grid %d×%d is too coarse to test the index", dt.grid.nx, dt.grid.ny)
			}
			span := math.Max(float64(l.Width), float64(l.Height))
			sizes := []struct {
				draw func(r *stats.RNG) float64
				// onEdges rounds the center to integers: with an integer
				// size the defect's edges then fall on rect edges, where
				// the strict comparisons decide.
				onEdges bool
			}{
				{draw: func(*stats.RNG) float64 { return 0 }},
				{draw: func(r *stats.RNG) float64 { return r.Range(0, 1) }},
				{draw: func(r *stats.RNG) float64 { return r.Range(0, side) }},
				{draw: func(r *stats.RNG) float64 { return r.Range(side, 8*side) }},
				{draw: func(r *stats.RNG) float64 { return r.Range(span, 3*span) }},
				{draw: func(r *stats.RNG) float64 { return float64(r.Intn(16)) }, onEdges: true},
				{draw: func(*stats.RNG) float64 { return 1e14 }},
				{draw: func(*stats.RNG) float64 { return math.Inf(1) }},
				{draw: func(*stats.RNG) float64 { return math.NaN() }},
			}
			r := stats.NewRNG(99)
			fatal := 0
			for i := 0; i < 200_000; i++ {
				x := r.Range(-2*side, float64(l.Width)+2*side)
				y := r.Range(-2*side, float64(l.Height)+2*side)
				sc := sizes[i%len(sizes)]
				if sc.onEdges {
					x, y = math.Round(x), math.Round(y)
				}
				size := sc.draw(r)
				want := IsFatal(rects, x, y, size)
				if got := dt.isFatal(x, y, size); got != want {
					t.Fatalf("defect (%v, %v) size %v: index says %v, IsFatal %v", x, y, size, got, want)
				}
				if want {
					fatal++
				}
			}
			if fatal == 0 {
				t.Fatal("no defect was fatal; the comparison tested nothing")
			}
		})
	}
	empty := &Layout{Name: "empty", Width: 10, Height: 10}
	if indexThrower(t, empty).isFatal(1, 1, 5) {
		t.Fatal("empty layout killed a die")
	}
}

// FuzzDefectIndexMatchesIsFatal holds the binned fatal test to IsFatal
// on arbitrary defects, NaN and infinities included.
func FuzzDefectIndexMatchesIsFatal(f *testing.F) {
	type target struct {
		rects []Rect
		dt    *DefectThrower
	}
	var targets []target
	for _, il := range indexLayouts(f) {
		targets = append(targets, target{il.l.LayerRects(Metal1), indexThrower(f, il.l)})
	}
	for i := range targets {
		for _, d := range [][3]float64{
			{50, 14, 6}, {50, 11, 0}, {100, 100, 0.4}, {100, 100, 16}, {100, 100, 200},
			{-30, -30, 40}, {5000, 5000, 1e4}, {300, 300, 1e14}, {300, 300, math.Inf(1)},
			{300, 300, math.NaN()}, {math.Inf(-1), 10, 4}, {10, math.NaN(), 4}, {100, 100, -6},
		} {
			f.Add(uint8(i), d[0], d[1], d[2])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, x, y, size float64) {
		tg := targets[int(which)%len(targets)]
		if got, want := tg.dt.isFatal(x, y, size), IsFatal(tg.rects, x, y, size); got != want {
			t.Fatalf("defect (%v, %v) size %v: index says %v, IsFatal %v", x, y, size, got, want)
		}
	})
}

// scalarThrow is the thrower's reference: IsFatal on the int rects and
// exp recomputed inside every Poisson draw.
func scalarThrow(l *Layout, layer Layer, mean float64, sampler func(*stats.RNG) float64, r *stats.RNG, trials int) (killed, defects int) {
	rects := l.LayerRects(layer)
	for t := 0; t < trials; t++ {
		n := r.Poisson(mean)
		defects += n
		dead := false
		for d := 0; d < n && !dead; d++ {
			x := r.Range(0, float64(l.Width))
			y := r.Range(0, float64(l.Height))
			size := sampler(r)
			if IsFatal(rects, x, y, size) {
				dead = true
			}
		}
		if dead {
			killed++
		}
	}
	return killed, defects
}

func TestSimulateDefectsMatchesScalarReference(t *testing.T) {
	l := twoWires(4)
	sampler := func(r *stats.RNG) float64 { return r.Range(2, 8) }
	wantKilled, wantDefects := scalarThrow(l, Metal1, 2.0, sampler, stats.NewRNG(31), 20000)
	killed, defects := throw(t, l, Metal1, 2.0, sampler, 20000, 31)
	if killed != wantKilled || defects != wantDefects {
		t.Fatalf("killed/defects %d/%d, scalar %d/%d", killed, defects, wantKilled, wantDefects)
	}
}
