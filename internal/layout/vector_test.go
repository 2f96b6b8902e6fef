package layout

import (
	"math"
	"testing"

	"repro/internal/parallel"
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

// scalarSimulateDefects is the pre-vectorization hot loop: IsFatal on the
// int rects, exp recomputed inside every Poisson draw, serial chunks.
func scalarSimulateDefects(l *Layout, c DefectSimConfig) (killed, defects int) {
	rects := l.LayerRects(c.Layer)
	chunks := parallel.Chunks(c.Trials, defectSimChunk)
	streams := stats.NewRNG(c.Seed).SplitN(chunks)
	for chunk := 0; chunk < chunks; chunk++ {
		r := streams[chunk]
		lo := chunk * defectSimChunk
		hi := min(lo+defectSimChunk, c.Trials)
		for t := lo; t < hi; t++ {
			n := r.Poisson(c.MeanDefects)
			defects += n
			dead := false
			for d := 0; d < n && !dead; d++ {
				x := r.Range(0, float64(l.Width))
				y := r.Range(0, float64(l.Height))
				size := c.SizeSampler(r)
				if IsFatal(rects, x, y, size) {
					dead = true
				}
			}
			if dead {
				killed++
			}
		}
	}
	return killed, defects
}

func TestSimulateDefectsMatchesScalarReference(t *testing.T) {
	l := twoWires(4)
	cfg := DefectSimConfig{
		Layer:       Metal1,
		MeanDefects: 2.0,
		SizeSampler: func(r *stats.RNG) float64 { return r.Range(2, 8) },
		Trials:      20000,
		Seed:        31,
	}
	killed, defects := scalarSimulateDefects(l, cfg)
	res, err := SimulateDefects(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsKilled != killed {
		t.Fatalf("killed %d, scalar %d", res.TrialsKilled, killed)
	}
	wantMean := float64(defects) / float64(cfg.Trials)
	if math.Float64bits(res.MeanDefects) != math.Float64bits(wantMean) {
		t.Fatalf("mean defects %x, scalar %x", res.MeanDefects, wantMean)
	}
}

func TestSimulateDefectsDeterministicAcrossWorkersAndTunerRegimes(t *testing.T) {
	l := twoWires(4)
	cfg := DefectSimConfig{
		Layer:       Metal1,
		MeanDefects: 1.5,
		SizeSampler: func(r *stats.RNG) float64 { return r.Range(2, 8) },
		Trials:      30000,
		Seed:        7,
		Workers:     1,
	}
	defectSimTuner.Reset()
	ref, err := SimulateDefects(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer defectSimTuner.Reset()
	regimes := []struct {
		name  string
		apply func()
	}{
		{"cold", func() { defectSimTuner.Reset() }},
		{"heavy", func() { defectSimTuner.Reset(); defectSimTuner.Observe(1, 10e-3) }},
		{"light", func() { defectSimTuner.Reset(); defectSimTuner.Observe(100000, 1e-3) }},
	}
	for _, rg := range regimes {
		for _, workers := range []int{1, 2, 4} {
			rg.apply()
			cfg.Workers = workers
			got, err := SimulateDefects(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.TrialsKilled != ref.TrialsKilled ||
				math.Float64bits(got.MeanDefects) != math.Float64bits(ref.MeanDefects) ||
				math.Float64bits(got.Yield) != math.Float64bits(ref.Yield) {
				t.Fatalf("regime %s workers %d: %+v, want %+v", rg.name, workers, got, ref)
			}
		}
	}
}
