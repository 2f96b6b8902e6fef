package mcjob

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/stats"
	"repro/internal/yield"
)

// Unit-chunk sizes per kernel kind. These are part of each kind's
// deterministic contract (they key the stream walk), so they are fixed
// here rather than configurable: cheap abstract trials get big chunks,
// geometry-heavy trials small ones, and the wafer-map kind uses one
// wafer per chunk since its randomness is keyed per (wafer, row).
const (
	defectChunkTrials       = 8192
	layoutDefectChunkTrials = 1024
	costChunkTrials         = 4096
	waferMapChunkTrials     = 1
)

// div returns a/b as float64, 0 when b is 0 — tallies of an empty run
// should report zeros, not NaNs.
func div(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// binomialStdErr is the standard error of a proportion estimate.
func binomialStdErr(p float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(p * (1 - p) / float64(n))
}

// ---------------------------------------------------------------------------
// defect: abstract die-level defect yield (paper eq (5) physics)

// DefectSpec parameterizes the abstract defect kind: each trial is one
// die receiving a Poisson number of fatal defects at rate Lambda,
// optionally gamma-mixed per die with clustering parameter Alpha (the
// negative binomial model of eq (5)). This is the cheapest kind — the
// one to use for 10⁸⁻⁹-trial confidence intervals on yield.
type DefectSpec struct {
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha,omitempty"`
}

// Validate reports the first invalid field of s, or nil.
func (s DefectSpec) Validate() error {
	if math.IsNaN(s.Lambda) || math.IsInf(s.Lambda, 0) || s.Lambda < 0 {
		return fmt.Errorf("mcjob: defect lambda must be finite and non-negative, got %v", s.Lambda)
	}
	if math.IsNaN(s.Alpha) || math.IsInf(s.Alpha, 0) || s.Alpha < 0 {
		return fmt.Errorf("mcjob: defect alpha must be finite and non-negative, got %v", s.Alpha)
	}
	return nil
}

type defectKernel struct {
	spec      DefectSpec
	expLambda float64 // exp(-Lambda), hoisted for the unclustered fast path
	// chunkRateSum is Lambda added defectChunkTrials times from 0, the
	// Partial.Sum of every full unclustered chunk.
	chunkRateSum float64
}

// NewDefectKernel validates the spec and prepares the kernel.
func NewDefectKernel(s DefectSpec) (Kernel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &defectKernel{spec: s, expLambda: math.Exp(-s.Lambda),
		chunkRateSum: rateSum(s.Lambda, defectChunkTrials)}, nil
}

// rateSum adds rate n times from 0, in the order a per-trial loop would.
func rateSum(rate float64, n int64) float64 {
	var sum float64
	for i := int64(0); i < n; i++ {
		sum += rate
	}
	return sum
}

func (k *defectKernel) Kind() string       { return "defect" }
func (k *defectKernel) ChunkTrials() int64 { return defectChunkTrials }
func (k *defectKernel) Keyed() bool        { return false }

func (k *defectKernel) Chunk(lo, hi int64, r *stats.RNG) (Partial, error) {
	if k.spec.Alpha == 0 {
		// Unclustered: every trial draws at the one rate Lambda, so the
		// chunk is one PoissonCounts call, which uses the variates of
		// hi−lo PoissonL calls.
		good, events := r.PoissonCounts(int(hi-lo), k.spec.Lambda, k.expLambda)
		sum := k.chunkRateSum
		if hi-lo != defectChunkTrials {
			sum = rateSum(k.spec.Lambda, hi-lo)
		}
		return Partial{Trials: hi - lo, Good: good, Events: events, Sum: sum}, nil
	}
	var p Partial
	for t := lo; t < hi; t++ {
		rate := k.spec.Lambda * r.Gamma(k.spec.Alpha, 1/k.spec.Alpha)
		n := r.Poisson(rate)
		p.Trials++
		p.Events += int64(n)
		p.Sum += rate
		if n == 0 {
			p.Good++
		}
	}
	return p, nil
}

func (k *defectKernel) Finalize(t Tally, cfg RunConfig) Result {
	y := div(t.Good, t.Trials)
	return Result{
		Kind: k.Kind(), Trials: t.Trials, Shards: cfg.Shards, Seed: cfg.Seed,
		Counts: map[string]int64{"good": t.Good, "defects": t.Events},
		Values: map[string]float64{
			"yield":       y,
			"stderr":      binomialStdErr(y, t.Trials),
			"mean_lambda": t.Sum / float64(t.Trials),
		},
	}
}

// ---------------------------------------------------------------------------
// layoutdefect: geometric defect simulation on generated layouts

// LayoutDefectSpec parameterizes the geometric kind: spot defects thrown
// at a generated layout (layout.DefectThrower), with the Stapper 1/x^P
// size distribution. Styles map to the §2.2 layout generators.
type LayoutDefectSpec struct {
	// Style picks the generated layout: "sram", "datapath", "asic-tight"
	// or "asic-sparse".
	Style string `json:"style"`
	// LayoutSeed seeds the random-logic generator (asic styles only).
	LayoutSeed uint64 `json:"layout_seed,omitempty"`
	// MeanDefects is the Poisson rate of defects per die per trial.
	MeanDefects float64 `json:"mean_defects"`
	// SizeX0 and SizeP parameterize the defect size distribution
	// (yield.DefectSizeDist) in λ; zero values take the canonical
	// DefaultDefectSizeDist(1) = {0.5, 3}.
	SizeX0 float64 `json:"size_x0,omitempty"`
	SizeP  float64 `json:"size_p,omitempty"`
}

// buildStyleLayout constructs the layout a style names. The fixed
// parameters mirror the layout package's StyleSd reference styles.
func buildStyleLayout(s LayoutDefectSpec) (*layout.Layout, error) {
	switch s.Style {
	case "sram":
		return layout.GenerateSRAMArray(32, 32)
	case "datapath":
		return layout.GenerateDatapath(32, 8, 12)
	case "asic-tight":
		return layout.GenerateRandomLogic(layout.RandomLogicConfig{Cells: 600, RowUtil: 0.9, RouteTracks: 2, Seed: s.LayoutSeed})
	case "asic-sparse":
		return layout.GenerateRandomLogic(layout.RandomLogicConfig{Cells: 600, RowUtil: 0.35, RouteTracks: 10, Seed: s.LayoutSeed})
	default:
		return nil, fmt.Errorf("mcjob: unknown layout style %q (want sram, datapath, asic-tight or asic-sparse)", s.Style)
	}
}

type layoutDefectKernel struct {
	thrower *layout.DefectThrower
}

// NewLayoutDefectKernel validates the spec, generates the style's layout
// and prepares its kernel with NewLayoutKernel.
func NewLayoutDefectKernel(s LayoutDefectSpec) (Kernel, error) {
	if s.SizeX0 == 0 && s.SizeP == 0 {
		d := yield.DefaultDefectSizeDist(1)
		s.SizeX0, s.SizeP = d.X0, d.P
	}
	l, err := buildStyleLayout(s)
	if err != nil {
		return nil, err
	}
	return NewLayoutKernel(l, s.MeanDefects, yield.DefectSizeDist{X0: s.SizeX0, P: s.SizeP})
}

// NewLayoutKernel prepares the layoutdefect kind on any layout: each
// trial throws a Poisson number of spot defects, meanDefects per die on
// average, with diameters drawn from dist, at the layout's metal1
// shapes.
func NewLayoutKernel(l *layout.Layout, meanDefects float64, dist yield.DefectSizeDist) (Kernel, error) {
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	sizes := dist.Sampler()
	thrower, err := layout.NewDefectThrower(l, layout.Metal1, meanDefects, sizes.Sample)
	if err != nil {
		return nil, err
	}
	return &layoutDefectKernel{thrower: thrower}, nil
}

func (k *layoutDefectKernel) Kind() string       { return "layoutdefect" }
func (k *layoutDefectKernel) ChunkTrials() int64 { return layoutDefectChunkTrials }
func (k *layoutDefectKernel) Keyed() bool        { return false }

func (k *layoutDefectKernel) Chunk(lo, hi int64, r *stats.RNG) (Partial, error) {
	killed, defects := k.thrower.Throw(r, int(hi-lo))
	return Partial{
		Trials: hi - lo,
		Good:   (hi - lo) - int64(killed),
		Events: int64(defects),
	}, nil
}

func (k *layoutDefectKernel) Finalize(t Tally, cfg RunConfig) Result {
	y := div(t.Good, t.Trials)
	return Result{
		Kind: k.Kind(), Trials: t.Trials, Shards: cfg.Shards, Seed: cfg.Seed,
		Counts: map[string]int64{"good": t.Good, "killed": t.Trials - t.Good, "defects": t.Events},
		Values: map[string]float64{
			"yield":        y,
			"stderr":       binomialStdErr(y, t.Trials),
			"mean_defects": div(t.Events, t.Trials),
		},
	}
}

// ---------------------------------------------------------------------------
// montecarlo: eq (4) cost propagation at giga scale

type costKernel struct {
	eval *core.MCEvaluator
}

// NewCostKernel validates the uncertain scenario and prepares the
// chunk evaluator. Unlike core.MonteCarloRun this kind keeps running
// moments instead of all samples, so it scales to trial counts no
// per-sample slice could hold — mean, stderr, min and max, no quantiles.
func NewCostKernel(u core.UncertainScenario) (Kernel, error) {
	eval, err := u.Evaluator()
	if err != nil {
		return nil, err
	}
	return &costKernel{eval: eval}, nil
}

func (k *costKernel) Kind() string       { return "montecarlo" }
func (k *costKernel) ChunkTrials() int64 { return costChunkTrials }
func (k *costKernel) Keyed() bool        { return false }

func (k *costKernel) Chunk(lo, hi int64, r *stats.RNG) (Partial, error) {
	t, err := k.eval.Chunk(r, int(hi-lo))
	if err != nil {
		return Partial{}, err
	}
	return Partial{
		Trials: hi - lo,
		Good:   int64(t.Accepted),
		Events: int64(t.Redraws),
		Sum:    t.Sum, Sum2: t.Sum2, Min: t.Min, Max: t.Max,
	}, nil
}

func (k *costKernel) Finalize(t Tally, cfg RunConfig) Result {
	n := float64(t.Trials)
	mean := t.Sum / n
	variance := 0.0
	if t.Trials > 1 {
		variance = (t.Sum2 - t.Sum*t.Sum/n) / (n - 1)
		if variance < 0 {
			variance = 0 // cancellation guard on near-degenerate inputs
		}
	}
	return Result{
		Kind: k.Kind(), Trials: t.Trials, Shards: cfg.Shards, Seed: cfg.Seed,
		Counts: map[string]int64{"accepted": t.Good, "redraws": t.Events},
		Values: map[string]float64{
			"mean":   mean,
			"stderr": math.Sqrt(variance / n),
			"min":    t.Min,
			"max":    t.Max,
		},
	}
}

// ---------------------------------------------------------------------------
// wafermap: spatial lot simulation, one wafer per trial

type waferMapKernel struct {
	sim *yield.WaferSimulator
}

// NewWaferMapKernel validates the wafer-map config and precomputes the
// geometry. One trial is one wafer, so RunConfig.Trials must equal
// c.Wafers — NewShardEvaluator enforces this via the kernel's MaxTrials.
func NewWaferMapKernel(c yield.WaferMapConfig) (Kernel, error) {
	sim, err := yield.NewWaferSimulator(c)
	if err != nil {
		return nil, err
	}
	return &waferMapKernel{sim: sim}, nil
}

func (k *waferMapKernel) Kind() string       { return "wafermap" }
func (k *waferMapKernel) ChunkTrials() int64 { return waferMapChunkTrials }
func (k *waferMapKernel) MaxTrials() int64   { return int64(k.sim.Wafers()) }

// Keyed: the wafer simulator derives per-(wafer, row) streams from
// stats.StreamSeed, so the engine's jump walk is skipped entirely.
func (k *waferMapKernel) Keyed() bool { return true }

func (k *waferMapKernel) Chunk(lo, hi int64, _ *stats.RNG) (Partial, error) {
	var p Partial
	sites := int64(k.sim.Sites())
	for w := lo; w < hi; w++ {
		good := int64(k.sim.Wafer(int(w)))
		y := div(good, sites)
		p.Trials++
		p.Good += good
		p.Events += sites
		p.Sum += y
		p.Sum2 += y * y
	}
	return p, nil
}

func (k *waferMapKernel) Finalize(t Tally, cfg RunConfig) Result {
	y := div(t.Good, t.Events)
	// Wafer-to-wafer spread: the per-wafer yields are i.i.d., so the
	// stderr of the lot mean comes from their sample variance.
	n := float64(t.Trials)
	stderr := 0.0
	if t.Trials > 1 {
		variance := (t.Sum2 - t.Sum*t.Sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		stderr = math.Sqrt(variance / n)
	}
	return Result{
		Kind: k.Kind(), Trials: t.Trials, Shards: cfg.Shards, Seed: cfg.Seed,
		Counts: map[string]int64{"good": t.Good, "sites": t.Events},
		Values: map[string]float64{
			"yield":           y,
			"stderr":          stderr,
			"sites_per_wafer": float64(k.sim.Sites()),
		},
	}
}
