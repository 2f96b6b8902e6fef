package yield

import (
	"context"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// SimConfig parameterizes the Monte Carlo defect simulator. The simulator
// places fatal defects on virtual wafers and counts surviving die,
// providing a measured yield to validate the analytic models against —
// including clustered (negative binomial) regimes where intuition fails.
type SimConfig struct {
	DiePerWafer   int     // die sites per wafer
	Wafers        int     // wafers to simulate
	Lambda        float64 // mean fatal defects per die (D0 · A_crit)
	ClusterAlpha  float64 // 0 = unclustered (pure Poisson); else gamma-mix α
	WaferToWafer  bool    // cluster at wafer granularity (true) or die (false)
	Seed          uint64  // RNG seed; same seed → identical result
	SpatialRadius float64 // 0 = none; else radial D0 gradient strength in [0,1)
	Workers       int     // simulation goroutines; <= 0 uses parallel.DefaultWorkers
}

// Validate reports the first invalid field of c, or nil.
func (c SimConfig) Validate() error {
	if c.DiePerWafer <= 0 {
		return fmt.Errorf("yield: sim: die per wafer must be positive, got %d", c.DiePerWafer)
	}
	if c.Wafers <= 0 {
		return fmt.Errorf("yield: sim: wafer count must be positive, got %d", c.Wafers)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("yield: sim: lambda must be non-negative, got %v", c.Lambda)
	}
	if c.ClusterAlpha < 0 {
		return fmt.Errorf("yield: sim: cluster alpha must be non-negative, got %v", c.ClusterAlpha)
	}
	if c.SpatialRadius < 0 || c.SpatialRadius >= 1 {
		return fmt.Errorf("yield: sim: spatial gradient must be in [0,1), got %v", c.SpatialRadius)
	}
	return nil
}

// SimResult reports a Monte Carlo yield measurement.
type SimResult struct {
	Yield      float64 // fraction of functional die
	StdErr     float64 // binomial-ish standard error from wafer-level spread
	GoodDie    int
	TotalDie   int
	MeanLambda float64 // realized mean defect count per die
}

// Simulate runs the Monte Carlo experiment. Each die's fatal defect count
// is Poisson with a rate that may be modulated by gamma-distributed
// clustering (per wafer or per die) and a radial wafer-position gradient;
// a die with zero fatal defects is good. The wafer-level yields provide
// the standard error.
//
// Wafers are simulated in parallel, each from its own RNG sub-stream
// keyed by stats.StreamSeed, and the per-wafer tallies are folded in
// wafer order, so the result depends only on the config — never the
// worker count.
func Simulate(c SimConfig) (SimResult, error) {
	if err := c.Validate(); err != nil {
		return SimResult{}, err
	}
	type waferTally struct {
		good      int
		lambdaSum float64
	}
	// The per-die branch structure is invariant over the whole run: hoist
	// it once instead of re-testing three config fields per die.
	perDieCluster := c.ClusterAlpha > 0 && !c.WaferToWafer
	spatial := c.SpatialRadius > 0
	tallies, err := parallel.Map(context.Background(), c.Wafers, c.Workers, func(w int) (waferTally, error) {
		r := stats.NewRNG(stats.StreamSeed(c.Seed, uint64(w)))
		waferScale := 1.0
		if c.ClusterAlpha > 0 && c.WaferToWafer {
			waferScale = r.Gamma(c.ClusterAlpha, 1/c.ClusterAlpha)
		}
		var t waferTally
		if !perDieCluster && !spatial {
			// Constant rate across the wafer: the Poisson exp hoists out of
			// the die loop (PoissonL keeps the draw sequence bit-identical).
			// lambdaSum still accumulates additively so the realized mean is
			// byte-identical to the scalar fold.
			rate := c.Lambda * waferScale
			if rate < 0 {
				rate = 0
			}
			expRate := math.Exp(-rate)
			for d := 0; d < c.DiePerWafer; d++ {
				t.lambdaSum += rate
				if r.PoissonL(rate, expRate) == 0 {
					t.good++
				}
			}
			return t, nil
		}
		for d := 0; d < c.DiePerWafer; d++ {
			rate := c.Lambda * waferScale
			if perDieCluster {
				rate = c.Lambda * r.Gamma(c.ClusterAlpha, 1/c.ClusterAlpha)
			}
			if spatial {
				// Die position: for a uniform position on the disk the
				// squared radial fraction ρ² is uniform on [0,1], so a
				// factor linear in ρ² grows toward the edge while keeping
				// the mean rate exactly λ.
				rho2 := r.Float64()
				rate *= 1 + c.SpatialRadius*(2*rho2-1)
			}
			if rate < 0 {
				rate = 0
			}
			t.lambdaSum += rate
			if r.Poisson(rate) == 0 {
				t.good++
			}
		}
		return t, nil
	})
	if err != nil {
		return SimResult{}, err
	}
	waferYields := make([]float64, 0, c.Wafers)
	var good, total int
	var lambdaSum float64
	for _, t := range tallies {
		good += t.good
		total += c.DiePerWafer
		lambdaSum += t.lambdaSum
		waferYields = append(waferYields, float64(t.good)/float64(c.DiePerWafer))
	}
	res := SimResult{
		Yield:      float64(good) / float64(total),
		GoodDie:    good,
		TotalDie:   total,
		MeanLambda: lambdaSum / float64(total),
	}
	if len(waferYields) > 1 {
		_, se, err := stats.MeanStderr(waferYields)
		if err != nil {
			return SimResult{}, err
		}
		res.StdErr = se
	}
	return res, nil
}
