package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Optimum describes a cost-optimal operating point located by OptimalSd.
type Optimum struct {
	Sd        float64   // argmin s_d
	Breakdown Breakdown // full cost itemization at the optimum
}

// OptimalSd finds the design decompression index minimizing the eq (4)
// transistor cost for the scenario, searching s_d in (Sd0, sdMax]. This is
// the §3.1 design objective: neither the smallest die (small s_d) nor the
// cheapest design effort (large s_d), but the argmin of C_tr.
//
// The objective is smooth and unimodal on the domain (a positive power of
// 1/(s_d−s_d0) plus a linear term), so a coarse grid pre-pass followed by
// Brent refinement is exact to the tolerance.
func OptimalSd(s Scenario, sdMax float64) (Optimum, error) {
	if err := s.Validate(); err != nil {
		return Optimum{}, err
	}
	lo := s.DesignCost.Sd0 * (1 + 1e-6)
	if sdMax <= lo {
		return Optimum{}, fmt.Errorf("core: OptimalSd: sdMax = %v must exceed s_d0 = %v", sdMax, s.DesignCost.Sd0)
	}
	// The objective is the fused yield→cost kernel: the scenario's
	// invariants are hoisted once and each probe costs one math.Pow plus a
	// handful of multiplies, with out-of-domain probes (s_d ≤ s_d0, eq (6)
	// overflow) mapping to +Inf exactly where the full evaluation would
	// have errored — bit-identical totals, so the located optimum cannot
	// move.
	k := newSdKernel(s)
	obj := k.total
	// Grid pre-pass guards against the steep wall at s_d0 confusing the
	// bracketing, then Brent refines. The error-returning grid search skips
	// NaN objective values (none are expected — out-of-domain points map to
	// +Inf above — but a NaN must never become the bracket center).
	gx, _, err := stats.ArgminGridE(obj, lo, sdMax, 512)
	if err != nil {
		return Optimum{}, fmt.Errorf("core: OptimalSd: %w", err)
	}
	span := (sdMax - lo) / 511
	blo, bhi := math.Max(lo, gx-2*span), math.Min(sdMax, gx+2*span)
	res, err := stats.Minimize(obj, blo, bhi, 1e-6*(sdMax-lo))
	if err != nil {
		return Optimum{}, err
	}
	b, err := s.WithSd(res.X).TransistorCost()
	if err != nil {
		return Optimum{}, err
	}
	return Optimum{Sd: res.X, Breakdown: b}, nil
}

// SweepPoint is one sample of a cost sweep.
type SweepPoint struct {
	X         float64 // swept variable (s_d, N_w, u, ...)
	Breakdown Breakdown
}

// SweepSdCtx evaluates the scenario cost on n logarithmically spaced s_d
// values in [lo, hi]. It is the Figure 4 workload. lo must exceed the
// model's Sd0. A cancellation or deadline of ctx aborts the remaining
// evaluations and returns ctx.Err(). Long sweeps driven by servers use it
// to stop wasting workers on abandoned requests.
func SweepSdCtx(ctx context.Context, s Scenario, lo, hi float64, n int) ([]SweepPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !finite(lo) || lo <= s.DesignCost.Sd0 {
		return nil, fmt.Errorf("core: SweepSd: lo = %v must exceed s_d0 = %v: %w", lo, s.DesignCost.Sd0, ErrOutOfDomain)
	}
	ctx, span := startSweepSpan(ctx, "core.sweep_sd", n)
	defer span.End()
	xs, err := gridLog(lo, hi, n)
	if err != nil {
		return nil, err
	}
	k := newSdKernel(s)
	return sweepEvalKernel(ctx, xs, k.eval)
}

// SweepVolume evaluates the scenario cost on n logarithmically spaced
// wafer volumes in [lo, hi].
func SweepVolume(s Scenario, lo, hi float64, n int) ([]SweepPoint, error) {
	return SweepVolumeCtx(context.Background(), s, lo, hi, n)
}

// SweepVolumeCtx is SweepVolume honoring a caller context.
func SweepVolumeCtx(ctx context.Context, s Scenario, lo, hi float64, n int) ([]SweepPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !finitePos(lo) {
		return nil, fmt.Errorf("core: SweepVolume: lo must be positive and finite, got %v", lo)
	}
	ctx, span := startSweepSpan(ctx, "core.sweep_volume", n)
	defer span.End()
	xs, err := gridLog(lo, hi, n)
	if err != nil {
		return nil, err
	}
	eval, err := sweepKernelFor(s, axisVolume)
	if err != nil {
		return nil, err
	}
	return sweepEvalKernel(ctx, xs, eval)
}

// SweepYieldCtx evaluates the scenario cost on n linearly spaced
// manufacturing yields in [lo, hi] ⊂ (0, 1], honoring ctx. Yield is the
// one swept axis where a log grid would waste points: the interesting
// structure (the 1/Y blow-up) lives at the low end of a bounded interval,
// so the spacing is linear.
func SweepYieldCtx(ctx context.Context, s Scenario, lo, hi float64, n int) ([]SweepPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !(finitePos(lo) && lo <= 1) || !(finitePos(hi) && hi <= 1) {
		return nil, fmt.Errorf("core: SweepYield: bounds must lie in (0,1], got [%v, %v]", lo, hi)
	}
	ctx, span := startSweepSpan(ctx, "core.sweep_yield", n)
	defer span.End()
	xs, err := gridLin(lo, hi, n)
	if err != nil {
		return nil, err
	}
	eval, err := sweepKernelFor(s, axisYield)
	if err != nil {
		return nil, err
	}
	return sweepEvalKernel(ctx, xs, eval)
}

// startSweepSpan opens a sweep stage's trace span (nil and free on an
// untraced context) after the sweep's domain validation has passed, so
// rejected requests never show up as stages.
func startSweepSpan(ctx context.Context, stage string, n int) (context.Context, *obs.Span) {
	ctx, span := obs.StartSpan(ctx, stage)
	if span != nil {
		span.SetAttr("points", strconv.Itoa(n))
	}
	return ctx, span
}

// gridLog materializes the n logarithmically spaced abscissas of a sweep.
// The sequential-multiplication construction is kept bit-identical to the
// historical serial sweep, so chunked/streamed evaluations of the same
// grid reproduce the buffered sweep exactly.
func gridLog(lo, hi float64, n int) ([]float64, error) {
	if !finite(lo) || !finite(hi) || !(lo < hi) {
		return nil, fmt.Errorf("core: sweep requires finite lo < hi, got [%v, %v]", lo, hi)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: sweep requires at least 2 points, got %d", n)
	}
	xs := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := 0; i < n; i++ {
		if i == n-1 {
			x = hi // avoid drift on the terminal point
		}
		xs[i] = x
		x *= ratio
	}
	return xs, nil
}

// gridLin materializes the n uniformly spaced abscissas of a sweep.
func gridLin(lo, hi float64, n int) ([]float64, error) {
	if !finite(lo) || !finite(hi) || !(lo < hi) {
		return nil, fmt.Errorf("core: sweep requires finite lo < hi, got [%v, %v]", lo, hi)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: sweep requires at least 2 points, got %d", n)
	}
	xs := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		xs[i] = lo + float64(i)*step
	}
	xs[n-1] = hi // avoid drift on the terminal point
	return xs, nil
}

// CrossoverVolume finds the production volume N_w (wafers) at which two
// scenarios cost the same per transistor, searching volumes in
// [loWafers, hiWafers]. The canonical use is the §2.5 FPGA-vs-ASIC
// question: scenario a is the ASIC (u = 1, heavy design cost), scenario b
// the FPGA (u < 1, amortized design). It returns ErrNoCrossover when the
// difference does not change sign on the interval.
func CrossoverVolume(a, b Scenario, loWafers, hiWafers float64) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if !(loWafers > 0 && loWafers < hiWafers) {
		return 0, fmt.Errorf("core: CrossoverVolume requires 0 < lo < hi, got [%v, %v]", loWafers, hiWafers)
	}
	diff := func(logW float64) float64 {
		w := math.Exp(logW)
		ba, errA := a.WithWafers(w).TransistorCost()
		bb, errB := b.WithWafers(w).TransistorCost()
		if errA != nil || errB != nil {
			return math.NaN()
		}
		return ba.Total - bb.Total
	}
	lo, hi := math.Log(loWafers), math.Log(hiWafers)
	var dlo, dhi float64
	_ = parallel.Do(context.Background(),
		func() error { dlo = diff(lo); return nil },
		func() error { dhi = diff(hi); return nil },
	)
	if math.IsNaN(dlo) || math.IsNaN(dhi) {
		return 0, fmt.Errorf("core: CrossoverVolume: cost undefined at interval endpoint")
	}
	if dlo == 0 {
		return loWafers, nil
	}
	if dhi == 0 {
		return hiWafers, nil
	}
	if (dlo > 0) == (dhi > 0) {
		return 0, ErrNoCrossover
	}
	logW, err := stats.Bisect(diff, lo, hi, 1e-10)
	if err != nil {
		return 0, err
	}
	return math.Exp(logW), nil
}
