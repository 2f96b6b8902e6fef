package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/stats"
)

// The kernels' single contract: bit-identical to the scalar path. Every
// test here compares raw float bits, never approximate equality.

func kernelScenarios() []Scenario {
	plain := figure4Scenario(5000, 0.4)
	util := plain
	util.Utilization = 0.31
	steep := plain
	steep.DesignCost = DesignCostModel{A0: 2.5e6, P1: 0.7, P2: 2.3, Sd0: 140}
	steep.Design.Sd = 220
	return []Scenario{plain, util, steep}
}

func breakdownsIdentical(a, b Breakdown) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Manufacturing, b.Manufacturing) && eq(a.DesignAndMask, b.DesignAndMask) &&
		eq(a.Total, b.Total) && eq(a.CmSq, b.CmSq) && eq(a.CdSq, b.CdSq) &&
		eq(a.DieArea, b.DieArea) && eq(a.DieCost, b.DieCost) && eq(a.DesignDE, b.DesignDE)
}

func TestSdKernelMatchesScalar(t *testing.T) {
	for si, s := range kernelScenarios() {
		k := newSdKernel(s)
		sd0 := s.DesignCost.Sd0
		xs := []float64{sd0 * (1 + 1e-9), sd0 + 0.5, sd0 + 7, 300, 1234.5678, 1e6, 1e150}
		for _, sd := range xs {
			want, werr := s.WithSd(sd).TransistorCost()
			got, gerr := k.eval(sd)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("scenario %d sd=%v: kernel err %v, scalar err %v", si, sd, gerr, werr)
			}
			if werr != nil {
				if gerr.Error() != werr.Error() {
					t.Fatalf("scenario %d sd=%v: kernel err %q, scalar err %q", si, sd, gerr, werr)
				}
				continue
			}
			if !breakdownsIdentical(got, want) {
				t.Fatalf("scenario %d sd=%v: kernel %+v, scalar %+v", si, sd, got, want)
			}
		}
	}
}

// An eq (6) overflow (s_d a hair above the pole) must surface the exact
// scalar error through the kernel's fallback path.
func TestSdKernelOverflowFallsBackToScalarError(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	k := newSdKernel(s)
	sd := s.DesignCost.Sd0 + 1e-260
	_, werr := s.WithSd(sd).TransistorCost()
	_, gerr := k.eval(sd)
	if werr == nil || gerr == nil {
		t.Fatalf("expected overflow errors, got kernel %v scalar %v", gerr, werr)
	}
	if gerr.Error() != werr.Error() {
		t.Fatalf("kernel err %q, scalar err %q", gerr, werr)
	}
}

func TestSdKernelTotalMatchesScalarObjective(t *testing.T) {
	for si, s := range kernelScenarios() {
		k := newSdKernel(s)
		sd0 := s.DesignCost.Sd0
		xs := []float64{sd0 - 1, sd0, sd0 + 1e-260, sd0 * (1 + 1e-9), sd0 + 3, 450, 9e5}
		for _, sd := range xs {
			want := math.Inf(1)
			if b, err := s.WithSd(sd).TransistorCost(); err == nil {
				want = b.Total
			}
			got := k.total(sd)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("scenario %d sd=%v: fused total %x, scalar objective %x", si, sd, got, want)
			}
		}
	}
}

func TestVolumeKernelMatchesScalar(t *testing.T) {
	for si, s := range kernelScenarios() {
		k, err := newVolumeKernel(s)
		if err != nil {
			t.Fatalf("scenario %d: %v", si, err)
		}
		for _, w := range []float64{1, 17.5, 5000, 1e9} {
			want, werr := s.WithWafers(w).TransistorCost()
			if werr != nil {
				t.Fatalf("scenario %d w=%v: %v", si, w, werr)
			}
			if got := k.eval(w); !breakdownsIdentical(got, want) {
				t.Fatalf("scenario %d w=%v: kernel %+v, scalar %+v", si, w, got, want)
			}
		}
	}
}

func TestYieldKernelMatchesScalar(t *testing.T) {
	for si, s := range kernelScenarios() {
		k, err := newYieldKernel(s)
		if err != nil {
			t.Fatalf("scenario %d: %v", si, err)
		}
		for _, y := range []float64{1e-6, 0.123456, 0.5, 0.999, 1} {
			sy := s
			sy.Process.Yield = y
			want, werr := sy.TransistorCost()
			if werr != nil {
				t.Fatalf("scenario %d y=%v: %v", si, y, werr)
			}
			if got := k.eval(y); !breakdownsIdentical(got, want) {
				t.Fatalf("scenario %d y=%v: kernel %+v, scalar %+v", si, y, got, want)
			}
		}
	}
}

// mcKernel.draw must agree with drawOnce on every draw: same RNG
// consumption, same accept/reject decision, bit-identical accepted total.
func TestMCKernelMatchesDrawOnce(t *testing.T) {
	base := figure4Scenario(5000, 0.8)
	cases := []UncertainScenario{
		// Well-behaved distributions: near-universal acceptance.
		{Base: base, Yield: Uniform(0.3, 0.9), CmSq: LogNormal(8, 1.4), Sd: Uniform(150, 600)},
		// Rejection-heavy: every sampled axis strays outside the domain.
		{
			Base:     base,
			Yield:    Uniform(-0.5, 1.5),
			CmSq:     Uniform(-2, 10),
			Sd:       Uniform(50, 400),
			Wafers:   Uniform(-100, 8000),
			MaskCost: Uniform(-1e5, 2e6),
		},
		// All-fixed: no RNG consumption at all.
		{Base: base},
	}
	for ci, u := range cases {
		dists := [5]Dist{
			orFixed(u.Yield, u.Base.Process.Yield),
			orFixed(u.CmSq, u.Base.Process.CostPerCM2),
			orFixed(u.Sd, u.Base.Design.Sd),
			orFixed(u.Wafers, u.Base.Wafers),
			orFixed(u.MaskCost, u.Base.MaskCost),
		}
		k := newMCKernel(u.Base)
		rRef := stats.NewRNG(97)
		rFast := stats.NewRNG(97)
		accepted, rejected := 0, 0
		for i := 0; i < 20000; i++ {
			wantTotal, wantOK := u.drawOnce(rRef, &dists)
			gotTotal, gotOK := k.draw(rFast, &dists)
			if wantOK != gotOK {
				t.Fatalf("case %d draw %d: kernel ok=%v, scalar ok=%v", ci, i, gotOK, wantOK)
			}
			if wantOK {
				accepted++
				if math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
					t.Fatalf("case %d draw %d: kernel total %x, scalar %x", ci, i, gotTotal, wantTotal)
				}
			} else {
				rejected++
			}
		}
		if accepted == 0 {
			t.Fatalf("case %d: no draw accepted — equivalence untested on the accept path", ci)
		}
		if ci == 1 && rejected == 0 {
			t.Fatal("rejection-heavy case rejected nothing — equivalence untested on the reject path")
		}
	}
}

// The tuner regimes below force the three groupings a tuner can land in:
// cold (seeded from the histogram), heavy chunks (group 1), light chunks
// (maximal grouping). Output must be byte-identical in all of them.
func TestSweepsDeterministicAcrossTunerRegimes(t *testing.T) {
	s := figure4Scenario(5000, 0.4)
	regimes := []struct {
		name  string
		apply func()
	}{
		{"cold", func() { sweepTuner.Reset() }},
		{"heavy", func() { sweepTuner.Reset(); sweepTuner.Observe(1, 10e-3) }},
		{"light", func() { sweepTuner.Reset(); sweepTuner.Observe(100000, 1e-3) }},
	}
	type run struct{ sd, vol, yld []SweepPoint }
	eval := func() run {
		ctx := context.Background()
		sd, err := SweepSdCtx(ctx, s, 150, 2000, 801)
		if err != nil {
			t.Fatal(err)
		}
		vol, err := SweepVolumeCtx(ctx, s, 100, 1e6, 801)
		if err != nil {
			t.Fatal(err)
		}
		yld, err := SweepYieldCtx(ctx, s, 0.05, 1, 801)
		if err != nil {
			t.Fatal(err)
		}
		return run{sd, vol, yld}
	}
	regimes[0].apply()
	ref := eval()
	defer sweepTuner.Reset()
	for _, rg := range regimes {
		rg.apply()
		got := eval()
		check := func(axis string, got, want []SweepPoint) {
			if len(got) != len(want) {
				t.Fatalf("%s regime %s: %d points, want %d", axis, rg.name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
					!breakdownsIdentical(got[i].Breakdown, want[i].Breakdown) {
					t.Fatalf("%s regime %s: point %d differs: %+v vs %+v", axis, rg.name, i, got[i], want[i])
				}
			}
		}
		check("sd", got.sd, ref.sd)
		check("volume", got.vol, ref.vol)
		check("yield", got.yld, ref.yld)
	}
}

func TestMonteCarloDeterministicAcrossWorkersAndTunerRegimes(t *testing.T) {
	s := figure4Scenario(5000, 0.8)
	u := UncertainScenario{
		Base:  s,
		Yield: Uniform(0.3, 0.9),
		CmSq:  LogNormal(8, 1.4),
		Sd:    Uniform(150, 600),
	}
	const n, seed = 20000, 42
	mcTuner.Reset()
	ref, err := u.MonteCarloRun(n, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mcTuner.Reset()
	regimes := []struct {
		name  string
		apply func()
	}{
		{"cold", func() { mcTuner.Reset() }},
		{"heavy", func() { mcTuner.Reset(); mcTuner.Observe(1, 10e-3) }},
		{"light", func() { mcTuner.Reset(); mcTuner.Observe(100000, 1e-3) }},
	}
	for _, rg := range regimes {
		for _, workers := range []int{1, 2, 4} {
			rg.apply()
			got, err := u.MonteCarloRun(n, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Redraws != ref.Redraws {
				t.Fatalf("regime %s workers %d: redraws %d, want %d", rg.name, workers, got.Redraws, ref.Redraws)
			}
			for i := range ref.Samples {
				if math.Float64bits(got.Samples[i]) != math.Float64bits(ref.Samples[i]) {
					t.Fatalf("regime %s workers %d: sample %d = %x, want %x",
						rg.name, workers, i, got.Samples[i], ref.Samples[i])
				}
			}
		}
	}
}

// draw is one joint draw through the kernel's three passes, as
// MCEvaluator.chunk runs them on a block of one.
func (k *mcKernel) draw(r *stats.RNG, dists *[5]Dist) (float64, bool) {
	var d mcDraw
	d.sample(r, dists)
	d.finish(dists)
	return k.eval(&d)
}
