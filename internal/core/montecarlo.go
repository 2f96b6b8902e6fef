package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Dist is a one-dimensional input distribution for uncertainty analysis.
// The zero value is invalid; construct with Fixed, Uniform or LogNormal.
type Dist struct {
	kind distKind
	a, b float64
}

type distKind int

const (
	distInvalid distKind = iota
	distFixed
	distUniform
	distLogNormal
)

// Fixed returns a degenerate distribution pinned at v.
func Fixed(v float64) Dist { return Dist{kind: distFixed, a: v} }

// Uniform returns a uniform distribution on [lo, hi].
func Uniform(lo, hi float64) Dist { return Dist{kind: distUniform, a: lo, b: hi} }

// LogNormal returns a log-normal distribution with the given median and
// multiplicative sigma (e.g. sigma = 1.3 means one standard deviation
// spans ×1.3 / ÷1.3) — the natural shape for costs and yields' odds.
func LogNormal(median, sigma float64) Dist { return Dist{kind: distLogNormal, a: median, b: sigma} }

// Validate reports whether the distribution is well-formed.
func (d Dist) Validate() error {
	switch d.kind {
	case distFixed:
		if !finite(d.a) {
			return fmt.Errorf("core: fixed distribution value must be finite, got %v", d.a)
		}
		return nil
	case distUniform:
		if !finite(d.a) || !finite(d.b) || !(d.a <= d.b) {
			return fmt.Errorf("core: uniform distribution requires finite lo <= hi, got [%v, %v]", d.a, d.b)
		}
		return nil
	case distLogNormal:
		if !finitePos(d.a) {
			return fmt.Errorf("core: log-normal median must be positive and finite, got %v", d.a)
		}
		if !finite(d.b) || d.b < 1 {
			return fmt.Errorf("core: log-normal sigma must be finite and >= 1, got %v", d.b)
		}
		return nil
	default:
		return fmt.Errorf("core: uninitialized distribution")
	}
}

// Sample draws one value.
func (d Dist) Sample(r *stats.RNG) float64 {
	switch d.kind {
	case distFixed:
		return d.a
	case distUniform:
		return r.Range(d.a, d.b)
	case distLogNormal:
		return d.a * math.Exp(r.Norm(0, math.Log(d.b)))
	default:
		panic("core: Sample on uninitialized Dist")
	}
}

// UncertainScenario wraps a base scenario with input distributions; any
// nil-kind (unset) field falls back to the base scenario's point value.
// Yield samples are clamped into (0, 1]; s_d samples below the design
// cost model's domain are rejected and redrawn.
type UncertainScenario struct {
	Base     Scenario
	Yield    Dist
	CmSq     Dist
	Sd       Dist
	Wafers   Dist
	MaskCost Dist
}

// dist returns d when set, else a Fixed at fallback.
func orFixed(d Dist, fallback float64) Dist {
	if d.kind == distInvalid {
		return Fixed(fallback)
	}
	return d
}

// CostQuantiles summarizes a Monte Carlo cost study. Redraws reports how
// many joint draws were rejected for landing outside the model domain —
// the study's truncation diagnostic (see MonteCarloRun).
type CostQuantiles struct {
	Mean    float64
	P5      float64
	P50     float64
	P95     float64
	N       int
	Redraws int
}

// MCRun is the raw outcome of a Monte Carlo propagation: the accepted
// cost samples in ascending order plus the rejection statistics needed to
// judge how hard the domain truncation bit.
type MCRun struct {
	// Samples holds the n accepted cost draws, sorted ascending. For a
	// given (n, seed) the contents are bit-identical for every worker
	// count, including 1.
	Samples []float64
	// Redraws counts rejected joint draws across the whole run. The
	// acceptance probability is estimated by n/(n+Redraws); the sampled
	// law is the input joint conditioned on the model domain, and the
	// total-variation distance between that truncated joint and the
	// unconditioned one is exactly the per-draw rejection probability,
	// estimated by Redraws/(n+Redraws). A large value means the quantiles
	// describe a materially truncated distribution — inspect it before
	// trusting the tails.
	Redraws int
}

// mcChunkSize fixes the Monte Carlo sharding granularity. Chunk
// boundaries and their RNG streams depend only on (n, seed) — never on
// the worker count — which is what makes parallel results bit-identical
// to serial ones.
const mcChunkSize = 4096

// mcMaxAttempts bounds the per-sample redraw loop. With per-draw
// acceptance probability p, a sample exhausts the loop with probability
// (1−p)^64 — below 1e-6 for any p ≥ 0.2 — at which point the run errors
// out rather than silently biasing the output.
const mcMaxAttempts = 64

// MonteCarlo propagates the input distributions through eq (4) and
// returns quantiles of the transistor cost, using the default worker
// count. Samples that land outside the model's domain (yield ≤ 0,
// s_d ≤ s_d0, …) are redrawn up to a bounded number of attempts per
// sample, and the total redraw count is reported.
func (u UncertainScenario) MonteCarlo(n int, seed uint64) (CostQuantiles, error) {
	return u.MonteCarloCtx(context.Background(), n, seed)
}

// MonteCarloCtx is MonteCarlo honoring a caller context for cancellation
// and tracing: the run appears as a "core.montecarlo" span on a traced
// context (the CLIs' -trace flag and the serving layer use this form).
func (u UncertainScenario) MonteCarloCtx(ctx context.Context, n int, seed uint64) (CostQuantiles, error) {
	run, err := u.MonteCarloRunCtx(ctx, n, seed, 0)
	if err != nil {
		return CostQuantiles{}, err
	}
	var sum float64
	for _, c := range run.Samples {
		sum += c
	}
	return CostQuantiles{
		Mean:    sum / float64(n),
		P5:      stats.Quantile(run.Samples, 0.05),
		P50:     stats.Quantile(run.Samples, 0.50),
		P95:     stats.Quantile(run.Samples, 0.95),
		N:       n,
		Redraws: run.Redraws,
	}, nil
}

// MonteCarloSamples runs the same propagation and returns the raw cost
// samples in ascending order, for histogramming and custom risk metrics.
func (u UncertainScenario) MonteCarloSamples(n int, seed uint64) ([]float64, error) {
	run, err := u.MonteCarloRun(n, seed, 0)
	if err != nil {
		return nil, err
	}
	return run.Samples, nil
}

// drawOnce samples one full joint input vector and evaluates eq (4).
// A draw is rejected as a unit: on failure the entire vector is redrawn,
// which is the unbiased truncation of the joint distribution to the model
// domain (redrawing only the offending coordinate would condition each
// input on the others' rejected values and skew the joint). The
// consequence — every accepted marginal is conditioned on joint validity
// — is quantified by the caller via the redraw count rather than hidden.
//
// This is the scalar reference path: the run itself uses mcKernel.draw,
// and the equivalence tests hold the two to bit-identical accept/reject
// decisions and totals on every draw.
func (u UncertainScenario) drawOnce(r *stats.RNG, dists *[5]Dist) (float64, bool) {
	s := u.Base
	y := dists[0].Sample(r)
	if y > 1 {
		y = 1
	}
	s.Process.Yield = y
	s.Process.CostPerCM2 = dists[1].Sample(r)
	s.Design.Sd = dists[2].Sample(r)
	s.Wafers = dists[3].Sample(r)
	s.MaskCost = dists[4].Sample(r)
	b, err := s.TransistorCost()
	if err != nil {
		return 0, false
	}
	return b.Total, true
}

// mcKernel is the vectorized per-draw evaluator of the Monte Carlo
// engine: every scenario invariant (λ², u, A_w, the eq (6) numerator) is
// hoisted once per run, so each draw pays only for the arithmetic that
// depends on the five sampled inputs — no Scenario copy, no
// re-validation of fixed fields, no error allocation on rejection. The
// retained operations keep the scalar path's association order exactly,
// so accept/reject decisions and accepted totals are bit-identical to
// drawOnce.
type mcKernel struct {
	pn  float64 // A0 · N_tr^p1, the eq (6) numerator
	sd0 float64
	p2  float64
	l2  float64 // λ² in cm²
	u   float64
	aw  float64 // A_w
}

func newMCKernel(s Scenario) mcKernel {
	return mcKernel{
		pn:  s.DesignCost.A0 * math.Pow(s.Design.Transistors, s.DesignCost.P1),
		sd0: s.DesignCost.Sd0,
		p2:  s.DesignCost.P2,
		l2:  LambdaSquaredCM2(s.Process.LambdaUM),
		u:   s.utilization(),
		aw:  s.Process.WaferAreaCM2,
	}
}

// draw samples one joint input vector — consuming the RNG in exactly
// drawOnce's order — and evaluates the eq (4) total. It rejects precisely
// the draws the scalar path rejects: a sampled field failing its
// Validate check, s_d at or below the eq (6) pole, or an eq (6) overflow
// past float range (which the scalar path catches as DesignCostPerCM2's
// finiteNonNeg guard). Everything else about the base scenario was
// validated once by the caller and cannot be invalidated by a draw.
func (k *mcKernel) draw(r *stats.RNG, dists *[5]Dist) (float64, bool) {
	y := dists[0].Sample(r)
	if y > 1 {
		y = 1
	}
	cm2 := dists[1].Sample(r)
	sd := dists[2].Sample(r)
	wafers := dists[3].Sample(r)
	mask := dists[4].Sample(r)
	if !finitePos(cm2) || !validYield(y) || !finitePos(sd) ||
		!finiteNonNeg(mask) || !finitePos(wafers) || sd <= k.sd0 {
		return 0, false
	}
	cde := k.pn / math.Pow(sd-k.sd0, k.p2)
	if !finiteNonNeg(cde) {
		return 0, false
	}
	cdsq := (mask + cde) / (wafers * k.aw)
	geom := k.l2 * sd / (k.u * y)
	return geom*cm2 + geom*cdsq, true
}

// mcTuner adapts the Monte Carlo task granularity from measured chunk
// cost. Grouping never moves a chunk's RNG stream or bounds, so it cannot
// affect the sampled values.
var mcTuner parallel.ChunkTuner

// MCChunkTally is the outcome of one Monte Carlo chunk evaluated by
// MCEvaluator.Chunk. Every float accumulator is folded left-to-right in
// draw order, so two evaluations of the same chunk from the same stream
// are bit-identical, and a merger that folds chunk tallies in canonical
// chunk order reproduces a serial run's totals exactly.
type MCChunkTally struct {
	Accepted int
	Redraws  int
	Sum      float64
	Sum2     float64
	Min      float64
	Max      float64
}

// MCEvaluator is the prepared chunk-at-a-time form of the Monte Carlo
// engine: the base scenario validated and hoisted into an mcKernel once,
// ready to evaluate any number of independent chunks. The sharded job
// engine (internal/mcjob) uses it to spread one giga-trial cost study
// over shards without materializing per-sample slices.
type MCEvaluator struct {
	k     mcKernel
	dists [5]Dist
}

// Evaluator validates u — base scenario first, then each effective input
// distribution — and returns the prepared per-chunk evaluator.
// MonteCarloRunCtx validates and draws through it too.
func (u UncertainScenario) Evaluator() (*MCEvaluator, error) {
	if err := u.Base.Validate(); err != nil {
		return nil, err
	}
	dists := [5]Dist{
		orFixed(u.Yield, u.Base.Process.Yield),
		orFixed(u.CmSq, u.Base.Process.CostPerCM2),
		orFixed(u.Sd, u.Base.Design.Sd),
		orFixed(u.Wafers, u.Base.Wafers),
		orFixed(u.MaskCost, u.Base.MaskCost),
	}
	for _, d := range dists {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	return &MCEvaluator{k: newMCKernel(u.Base), dists: dists}, nil
}

// Chunk draws n accepted cost samples from r and returns their running
// tally. It fails like MonteCarloRunCtx does: a non-finite accepted
// total or a sample exhausting mcMaxAttempts aborts the chunk.
func (e *MCEvaluator) Chunk(r *stats.RNG, n int) (MCChunkTally, error) {
	return e.chunk(r, n, nil)
}

// chunk is the one accept/reject loop of the Monte Carlo engine. It
// draws n accepted samples from r, tallies them and, when out is
// non-nil, also stores the i-th accepted total in out[i] (len(out) must
// be n), which is how MonteCarloRunCtx collects its samples.
func (e *MCEvaluator) chunk(r *stats.RNG, n int, out []float64) (MCChunkTally, error) {
	t := MCChunkTally{Min: math.Inf(1), Max: math.Inf(-1)}
	for i := 0; i < n; i++ {
		ok := false
		for attempt := 0; attempt < mcMaxAttempts; attempt++ {
			total, accepted := e.k.draw(r, &e.dists)
			if accepted {
				if !finite(total) {
					// With finite-validated inputs this is unreachable, but a
					// NaN that slipped through must fail the run rather than
					// be averaged into the tally or the quantiles.
					return MCChunkTally{}, fmt.Errorf("core: MonteCarlo produced non-finite cost %v from an accepted draw", total)
				}
				if out != nil {
					out[i] = total
				}
				t.Accepted++
				t.Sum += total
				t.Sum2 += total * total
				if total < t.Min {
					t.Min = total
				}
				if total > t.Max {
					t.Max = total
				}
				ok = true
				break
			}
			t.Redraws++
		}
		if !ok {
			return MCChunkTally{}, fmt.Errorf("core: MonteCarlo could not draw a valid sample in %d attempts (distributions mostly outside the model domain; %d rejected draws in this chunk alone)",
				mcMaxAttempts, t.Redraws)
		}
	}
	return t, nil
}

// MonteCarloRun is the engine underneath MonteCarlo and
// MonteCarloSamples: it shards the n samples into fixed chunks of
// mcChunkSize, drives each chunk from its own guaranteed-disjoint RNG
// sub-stream (stats.RNG.SplitN), and evaluates chunks on up to `workers`
// goroutines (workers <= 0 uses parallel.DefaultWorkers). Because the
// sharding and the streams depend only on (n, seed), the sorted output is
// bit-identical for every worker count.
func (u UncertainScenario) MonteCarloRun(n int, seed uint64, workers int) (MCRun, error) {
	return u.MonteCarloRunCtx(context.Background(), n, seed, workers)
}

// MonteCarloRunCtx is MonteCarloRun honoring a caller context: a
// cancellation aborts the remaining chunks, and on a traced context the
// whole run records a "core.montecarlo" span (with the pool's
// "parallel.run" nested under it). The sharding and RNG streams still
// depend only on (n, seed), so results remain bit-identical for every
// worker count — tracing observes the run, it never reschedules it.
func (u UncertainScenario) MonteCarloRunCtx(ctx context.Context, n int, seed uint64, workers int) (MCRun, error) {
	if n <= 0 {
		return MCRun{}, fmt.Errorf("core: MonteCarlo requires positive sample count, got %d", n)
	}
	e, err := u.Evaluator()
	if err != nil {
		return MCRun{}, err
	}
	ctx, span := obs.StartSpan(ctx, "core.montecarlo")
	if span != nil {
		span.SetAttr("samples", strconv.Itoa(n))
		defer span.End()
	}
	chunks := parallel.Chunks(n, mcChunkSize)
	streams := stats.NewRNG(seed).SplitN(chunks)
	costs := make([]float64, n)
	redraws := make([]int, chunks)
	err = parallel.ForEachChunkTuned(ctx, n, mcChunkSize, workers, &mcTuner, func(chunk, lo, hi int) error {
		t, err := e.chunk(streams[chunk], hi-lo, costs[lo:hi])
		redraws[chunk] = t.Redraws
		return err
	})
	if err != nil {
		return MCRun{}, err
	}
	total := 0
	for _, c := range redraws {
		total += c
	}
	sort.Float64s(costs)
	return MCRun{Samples: costs, Redraws: total}, nil
}

// TornadoBar is one input's leverage on the transistor cost: the cost at
// the input's low and high excursion with every other input at its base
// value.
type TornadoBar struct {
	Name     string
	LowCost  float64
	HighCost float64
}

// Swing returns the absolute cost range the input commands.
func (b TornadoBar) Swing() float64 { return math.Abs(b.HighCost - b.LowCost) }

// Tornado performs one-at-a-time sensitivity: each parameter is moved to
// (1−rel) and (1+rel) of its base value (yield clamped to 1) and the cost
// re-evaluated. Bars are returned sorted by descending swing — the
// tornado chart that tells a cost engineer which input to nail down
// first.
func Tornado(s Scenario, rel float64) ([]TornadoBar, error) {
	if !(rel > 0 && rel < 1) {
		return nil, fmt.Errorf("core: Tornado excursion must be in (0,1), got %v", rel)
	}
	if _, err := s.TransistorCost(); err != nil {
		return nil, err
	}
	evalWith := func(apply func(*Scenario, float64), v float64) (float64, error) {
		sc := s
		apply(&sc, v)
		b, err := sc.TransistorCost()
		if err != nil {
			return 0, err
		}
		return b.Total, nil
	}
	params := []struct {
		name  string
		base  float64
		apply func(*Scenario, float64)
		clamp func(float64) float64
	}{
		{"yield", s.Process.Yield, func(sc *Scenario, v float64) { sc.Process.Yield = v },
			func(v float64) float64 { return math.Min(v, 1) }},
		{"cm_sq", s.Process.CostPerCM2, func(sc *Scenario, v float64) { sc.Process.CostPerCM2 = v }, nil},
		{"s_d", s.Design.Sd, func(sc *Scenario, v float64) { sc.Design.Sd = v }, nil},
		{"wafers", s.Wafers, func(sc *Scenario, v float64) { sc.Wafers = v }, nil},
		{"mask", s.MaskCost, func(sc *Scenario, v float64) { sc.MaskCost = v }, nil},
		{"lambda", s.Process.LambdaUM, func(sc *Scenario, v float64) { sc.Process.LambdaUM = v }, nil},
	}
	bars := make([]TornadoBar, 0, len(params))
	for _, p := range params {
		lo, hi := p.base*(1-rel), p.base*(1+rel)
		if p.clamp != nil {
			lo, hi = p.clamp(lo), p.clamp(hi)
		}
		lc, err := evalWith(p.apply, lo)
		if err != nil {
			return nil, fmt.Errorf("core: tornado %s low: %w", p.name, err)
		}
		hc, err := evalWith(p.apply, hi)
		if err != nil {
			return nil, fmt.Errorf("core: tornado %s high: %w", p.name, err)
		}
		bars = append(bars, TornadoBar{Name: p.name, LowCost: lc, HighCost: hc})
	}
	sort.Slice(bars, func(i, j int) bool { return bars[i].Swing() > bars[j].Swing() })
	return bars, nil
}
