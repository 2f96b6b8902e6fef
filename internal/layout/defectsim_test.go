package layout

import (
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
)

func fixedSize(size float64) func(*stats.RNG) float64 {
	return func(*stats.RNG) float64 { return size }
}

func TestIsFatalShort(t *testing.T) {
	rects := []Rect{
		{X0: 10, Y0: 10, X1: 110, Y1: 12, Layer: Metal1},
		{X0: 10, Y0: 16, X1: 110, Y1: 18, Layer: Metal1},
	}
	// Defect of size 6 centered in the gap bridges both wires.
	if !IsFatal(rects, 50, 14, 6) {
		t.Fatal("bridging defect not fatal")
	}
	// Size 3 in the gap touches neither fully; reaches only one wire.
	if IsFatal(rects, 50, 14.9, 3) && IsFatal(rects, 50, 13.1, 3) {
		t.Fatal("small defect reported as bridging both wires")
	}
	// Far away: harmless.
	if IsFatal(rects, 500, 500, 6) {
		t.Fatal("distant defect fatal")
	}
}

func TestIsFatalOpen(t *testing.T) {
	// A single horizontal wire of width 2.
	rects := []Rect{{X0: 10, Y0: 10, X1: 110, Y1: 12, Layer: Metal1}}
	// A size-4 defect centered on the wire spans its width: open.
	if !IsFatal(rects, 50, 11, 4) {
		t.Fatal("severing defect not fatal")
	}
	// A size-1.5 defect inside the wire does not span it.
	if IsFatal(rects, 50, 11, 1.5) {
		t.Fatal("sub-width defect fatal")
	}
	// A spanning defect beyond the wire end does not sever anything.
	if IsFatal(rects, 115, 11, 4) {
		t.Fatal("defect beyond wire end fatal")
	}
}

// throw prepares a thrower on l's layer and throws trials die from one
// seeded stream.
func throw(t *testing.T, l *Layout, layer Layer, mean float64, sampler func(*stats.RNG) float64, trials int, seed uint64) (killed, defects int) {
	t.Helper()
	dt, err := NewDefectThrower(l, layer, mean, sampler)
	if err != nil {
		t.Fatal(err)
	}
	return dt.Throw(stats.NewRNG(seed), trials)
}

func TestSimulateDefectsMatchesCriticalArea(t *testing.T) {
	// Two parallel wires, fixed defect size: the analytic fatal area is
	// shorts + opens from critarea.go; the Monte Carlo kill probability
	// per defect must match fatalArea/dieArea, and the yield must match
	// Poisson with λ = meanDefects · fatalFraction.
	l := twoWires(4)
	const size = 6.0
	shorts, err := CriticalArea(l, Metal1, size)
	if err != nil {
		t.Fatal(err)
	}
	opens, err := OpenCriticalArea(l, Metal1, size)
	if err != nil {
		t.Fatal(err)
	}
	fatalFraction := (shorts + opens) / float64(l.AreaLambda2())

	const meanDefects, trials = 2.0, 40000
	killed, defects := throw(t, l, Metal1, meanDefects, fixedSize(size), trials, 77)
	got := float64(trials-killed) / trials
	stderr := math.Sqrt(got * (1 - got) / trials)
	want := math.Exp(-meanDefects * fatalFraction)
	if math.Abs(got-want) > 4*stderr+0.01 {
		t.Fatalf("measured yield %v ± %v, analytic Poisson(λ=%v) = %v",
			got, stderr, meanDefects*fatalFraction, want)
	}
	if mean := float64(defects) / trials; math.Abs(mean-meanDefects) > 0.05 {
		t.Fatalf("realized defect rate %v, want %v", mean, meanDefects)
	}
}

func TestSimulateDefectsZeroRate(t *testing.T) {
	killed, defects := throw(t, twoWires(4), Metal1, 0, fixedSize(6), 100, 1)
	if killed != 0 || defects != 0 {
		t.Fatalf("zero rate threw %d defects and killed %d die", defects, killed)
	}
}

func TestSimulateDefectsBiggerDefectsKillMore(t *testing.T) {
	l, err := GenerateRandomLogic(RandomLogicConfig{Cells: 150, RowUtil: 0.8, RouteTracks: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	killedAt := func(size float64) int {
		killed, _ := throw(t, l, Metal2, 3, fixedSize(size), 4000, 9)
		return killed
	}
	small, big := killedAt(1.5), killedAt(8)
	if big <= small {
		t.Fatalf("bigger defects did not kill more die: %d vs %d", big, small)
	}
}

func TestSimulateDefectsDeterministic(t *testing.T) {
	l := twoWires(4)
	k1, d1 := throw(t, l, Metal1, 1, fixedSize(5), 500, 3)
	k2, d2 := throw(t, l, Metal1, 1, fixedSize(5), 500, 3)
	if k1 != k2 || d1 != d2 {
		t.Fatalf("same seed, different results: %d/%d vs %d/%d", k1, d1, k2, d2)
	}
}

func TestSimulateDefectsValidation(t *testing.T) {
	l := twoWires(4)
	if _, err := NewDefectThrower(l, Metal1, -1, fixedSize(1)); err == nil {
		t.Fatal("accepted negative rate")
	}
	if _, err := NewDefectThrower(l, Metal1, 1, nil); err == nil {
		t.Fatal("accepted nil sampler")
	}
	bad := &Layout{Name: "b", Width: 0, Height: 1}
	if _, err := NewDefectThrower(bad, Metal1, 1, fixedSize(1)); err == nil {
		t.Fatal("accepted invalid layout")
	}
}

// TestSimulateDefectsDeterministicAcrossWorkers throws chunks from
// disjoint streams on one shared thrower, all at once, and requires the
// tallies of a serial pass: Throw keeps no state between calls.
func TestSimulateDefectsDeterministicAcrossWorkers(t *testing.T) {
	dt, err := NewDefectThrower(twoWires(4), Metal1, 2.0, func(r *stats.RNG) float64 { return r.Range(2, 8) })
	if err != nil {
		t.Fatal(err)
	}
	const chunks, trials = 8, 1024
	type tally struct{ killed, defects int }
	serial := make([]tally, chunks)
	for c, r := range stats.NewRNG(23).SplitN(chunks) {
		serial[c].killed, serial[c].defects = dt.Throw(r, trials)
	}
	concurrent := make([]tally, chunks)
	var wg sync.WaitGroup
	for c, r := range stats.NewRNG(23).SplitN(chunks) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[c].killed, concurrent[c].defects = dt.Throw(r, trials)
		}()
	}
	wg.Wait()
	for c := range serial {
		if concurrent[c] != serial[c] {
			t.Fatalf("chunk %d: concurrent %+v, serial %+v", c, concurrent[c], serial[c])
		}
	}
}
