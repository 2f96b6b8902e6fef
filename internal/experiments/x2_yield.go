package experiments

import (
	"context"
	"fmt"

	"repro/internal/mcjob"
	"repro/internal/report"
	"repro/internal/yield"
)

// YieldComparisonRow holds the measured and modeled yields at one λ.
type YieldComparisonRow struct {
	Lambda    float64 // mean fatal defects per die
	Measured  float64
	Poisson   float64
	Murphy    float64
	Seeds     float64
	NegBin    float64 // at the simulation's clustering α
	MeasuredC float64 // measured with clustering enabled
}

// YieldModelComparison runs the X-2 study: Monte Carlo yield (unclustered
// and clustered at α) against the four analytic models over a sweep of
// defects-per-die. Each point measures trials die through the sharded
// engine's defect kind, a fresh gamma draw per die when clustered.
// Unclustered measurements track Poisson; clustered ones track the
// negative binomial at the same α — the validation loop §3.1 says
// nanometer DfM needs.
func YieldModelComparison(lambdas []float64, alpha float64, trials int, seed uint64) ([]YieldComparisonRow, *report.Figure, error) {
	if len(lambdas) == 0 {
		return nil, nil, fmt.Errorf("experiments: X-2 needs at least one lambda")
	}
	if alpha <= 0 {
		return nil, nil, fmt.Errorf("experiments: X-2 clustering alpha must be positive, got %v", alpha)
	}
	measure := func(spec mcjob.DefectSpec, s uint64) (float64, error) {
		k, err := mcjob.NewDefectKernel(spec)
		if err != nil {
			return 0, err
		}
		res, err := mcjob.Run(context.Background(), k, mcjob.RunConfig{Trials: int64(trials), Seed: s})
		return res.Values["yield"], err
	}
	nb := yield.NegBinomial{Alpha: alpha}
	var rows []YieldComparisonRow
	for i, l := range lambdas {
		s := seed + uint64(i)*7919
		mp, err := measure(mcjob.DefectSpec{Lambda: l}, s)
		if err != nil {
			return nil, nil, err
		}
		mc, err := measure(mcjob.DefectSpec{Lambda: l, Alpha: alpha}, s)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, YieldComparisonRow{
			Lambda:    l,
			Measured:  mp,
			MeasuredC: mc,
			Poisson:   (yield.Poisson{}).Yield(l),
			Murphy:    (yield.Murphy{}).Yield(l),
			Seeds:     (yield.Seeds{}).Yield(l),
			NegBin:    nb.Yield(l),
		})
	}
	fig := &report.Figure{
		Title:  "X-2 — analytic yield models vs Monte Carlo",
		XLabel: "mean fatal defects per die",
		YLabel: "yield",
	}
	mk := func(name string, pick func(YieldComparisonRow) float64) report.Series {
		s := report.Series{Name: name}
		for _, r := range rows {
			s.X = append(s.X, r.Lambda)
			s.Y = append(s.Y, pick(r))
		}
		return s
	}
	fig.Add(mk("measured (uniform)", func(r YieldComparisonRow) float64 { return r.Measured }))
	fig.Add(mk(fmt.Sprintf("measured (clustered α=%g)", alpha), func(r YieldComparisonRow) float64 { return r.MeasuredC }))
	fig.Add(mk("poisson", func(r YieldComparisonRow) float64 { return r.Poisson }))
	fig.Add(mk("murphy", func(r YieldComparisonRow) float64 { return r.Murphy }))
	fig.Add(mk("seeds", func(r YieldComparisonRow) float64 { return r.Seeds }))
	fig.Add(mk("negbinomial", func(r YieldComparisonRow) float64 { return r.NegBin }))
	return rows, fig, nil
}
