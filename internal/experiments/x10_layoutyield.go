package experiments

import (
	"context"
	"fmt"

	"repro/internal/layout"
	"repro/internal/mcjob"
	"repro/internal/report"
	"repro/internal/yield"
)

// LayoutYieldRow is one design style of the X-10 study: the analytic
// critical-area yield prediction against the geometric Monte Carlo.
type LayoutYieldRow struct {
	Style          string
	Sd             float64
	CriticalFrac   float64 // fatal area / die area at the mean defect rate
	AnalyticYield  float64 // Poisson over size-averaged critical area
	MeasuredYield  float64 // geometric Monte Carlo
	MeasuredStderr float64
}

// LayoutYieldStudy runs X-10, the full DfM chain §3.1 calls for:
// generated layouts → size-resolved critical area → averaged over the
// 1/x³ defect size distribution → analytic Poisson yield — validated by a
// geometric Monte Carlo that throws sized defects at the same geometry.
// Denser styles expose more critical area per cm² and yield worse at
// equal defect counts. The pairwise critical-area sum double-counts
// overlapping critical strips in dense geometry, so the analytic yield is
// a conservative (lower) bound on the measurement — tight for sparse
// layouts, pessimistic for packed arrays — the standard property of the
// parallel-edge approximation.
func LayoutYieldStudy(meanDefects float64, trials int, seed uint64) ([]LayoutYieldRow, *report.Table, error) {
	if meanDefects < 0 {
		return nil, nil, fmt.Errorf("experiments: X-10 defect rate must be non-negative, got %v", meanDefects)
	}
	if trials <= 0 {
		return nil, nil, fmt.Errorf("experiments: X-10 trials must be positive, got %d", trials)
	}
	type style struct {
		name string
		gen  func() (*layout.Layout, error)
	}
	styles := []style{
		{"sram-array", func() (*layout.Layout, error) { return layout.GenerateSRAMArray(16, 16) }},
		{"datapath", func() (*layout.Layout, error) { return layout.GenerateDatapath(16, 5, 12) }},
		{"asic-sparse", func() (*layout.Layout, error) {
			return layout.GenerateRandomLogic(layout.RandomLogicConfig{Cells: 250, RowUtil: 0.45, RouteTracks: 8, Seed: seed})
		}},
	}
	// Defect sizes follow the canonical distribution peaked at 2λ (in
	// layout units λ = 1, so X0 = 2 keeps most defects near-minimum size
	// while the 1/x³ tail reaches multi-track spans).
	dist := yield.DefectSizeDist{X0: 2, P: 3}
	tbl := report.NewTable("X-10 — layout critical-area yield: analytic vs geometric Monte Carlo",
		"style", "s_d", "critical fraction", "analytic Y", "measured Y", "stderr")
	var rows []LayoutYieldRow
	for _, st := range styles {
		l, err := st.gen()
		if err != nil {
			return nil, nil, err
		}
		sd, err := l.Sd()
		if err != nil {
			return nil, nil, err
		}
		// Size-averaged critical fraction on metal1 (shorts + opens),
		// memoized on the layout content hash: the seed-independent styles
		// hit the cache on every row after the first study in a process,
		// and the quadrature inside the fill path samples a single
		// zero-allocation CritEvaluator instead of re-extracting the
		// geometry at every defect size.
		critFrac, err := avgCriticalFraction(l, layout.Metal1, dist, 200)
		if err != nil {
			return nil, nil, err
		}
		analytic := (yield.Poisson{}).Yield(meanDefects * critFrac)
		k, err := mcjob.NewLayoutKernel(l, meanDefects, dist)
		if err != nil {
			return nil, nil, err
		}
		res, err := mcjob.Run(context.Background(), k, mcjob.RunConfig{Trials: int64(trials), Seed: seed + 13})
		if err != nil {
			return nil, nil, err
		}
		row := LayoutYieldRow{
			Style: st.name, Sd: sd,
			CriticalFrac:  critFrac,
			AnalyticYield: analytic,
			MeasuredYield: res.Values["yield"], MeasuredStderr: res.Values["stderr"],
		}
		rows = append(rows, row)
		tbl.AddRow(row.Style, row.Sd, row.CriticalFrac, row.AnalyticYield, row.MeasuredYield, row.MeasuredStderr)
	}
	return rows, tbl, nil
}
