// Command figures regenerates every table and figure of the paper and the
// extension studies from DESIGN.md's experiment index, printing ASCII
// renderings (or CSV with -csv) to stdout.
//
// Usage:
//
//	figures [-only id] [-csv]
//
// where id is one of: tablea1, fig1, fig2, fig3, fig4, x1…x22 (see -list).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/report"
)

func main() {
	only := flag.String("only", "", "regenerate a single artifact (tablea1, fig1…fig4, x1…x22)")
	csv := flag.Bool("csv", false, "emit CSV instead of rendered tables/figures")
	list := flag.Bool("list", false, "list every artifact with its title and exit")
	workers := flag.Int("workers", 0, "worker goroutines for simulations and sweeps (0 = all cores); artifacts are identical for any value")
	o := &obs.Flags{}
	o.RegisterFlags(flag.CommandLine)
	prof := profiling.Register()
	flag.Parse()
	cliutil.Validate(prof, o)
	parallel.SetDefaultWorkers(*workers)
	slog.SetDefault(o.Logger(os.Stderr))

	if *list {
		for _, a := range artifacts(context.Background()) {
			fmt.Printf("%-8s %s\n", a.id, a.title)
		}
		return
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	ctx := o.StartRoot(context.Background(), "figures.run")
	err := run(ctx, os.Stdout, *only, *csv)
	o.Finish(os.Stderr)
	if perr := prof.Stop(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// artifact is one regenerable table, figure or study: its id, the title
// -list prints, and how to render it with its canonical parameters.
type artifact struct {
	id, title string
	run       func(w io.Writer, csv bool) error
}

// artifacts returns every artifact of the reproduction, the paper's table
// and figures followed by the extension studies; ctx carries the trace
// the Figure 4 sweeps nest under.
func artifacts(ctx context.Context) []artifact {
	return []artifact{
		{"tablea1", "Table A1 — 49 industrial designs", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.TableA1()
			return emitTable(w, tbl, csv, err)
		}},
		{"fig1", "Figure 1 — industrial s_d trend", func(w io.Writer, csv bool) error {
			res, fig, err := experiments.Figure1()
			if err != nil {
				return err
			}
			if err := emitFigure(w, fig, csv); err != nil {
				return err
			}
			if !csv {
				fmt.Fprintf(w, "industry s_d trend: %+.2f squares/year (R²=%.2f)\n", res.IndustryTrend.Slope, res.IndustryTrend.R2)
				fmt.Fprintf(w, "Intel trend: %+.2f /yr; AMD pre-K7 mean %.0f vs Intel %.0f; K7 s_d %.0f\n\n",
					res.IntelTrend.Slope, res.AMDMeanPreK7, res.IntelMeanPre, res.K7Sd)
			}
			return nil
		}},
		{"fig2", "Figure 2 — ITRS-implied s_d", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.Figure2()
			return emitFigure(w, fig, csv, err)
		}},
		{"fig3", "Figure 3 — required s_d for a $34 die", func(w io.Writer, csv bool) error {
			rows, fig, err := experiments.Figure3()
			if err != nil {
				return err
			}
			if err := emitFigure(w, fig, csv); err != nil {
				return err
			}
			if !csv {
				tbl := report.NewTable("Figure 3 rows", "year", "λ µm", "implied s_d", "required s_d", "ratio", "roadmap die $")
				for _, r := range rows {
					tbl.AddRow(r.Year, r.LambdaUM, r.ImpliedSd, r.RequiredSd, r.Ratio, r.DieCost)
				}
				fmt.Fprintln(w, tbl.String())
			}
			return nil
		}},
		{"fig4", "Figure 4 — C_tr(s_d), both panels", func(w io.Writer, csv bool) error {
			for _, c := range experiments.Figure4Cases() {
				_, fig, err := experiments.Figure4Ctx(ctx, c, 48)
				if err != nil {
					return err
				}
				if err := emitFigure(w, fig, csv); err != nil {
					return err
				}
			}
			return nil
		}},
		{"x1", "optimal s_d vs volume", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.OptimalSdVsVolume(500, 1e6, 16)
			return emitFigure(w, fig, csv, err)
		}},
		{"x2", "yield models vs Monte Carlo", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.YieldModelComparison(
				[]float64{0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.4},
				1.0, 80_000, 7)
			return emitFigure(w, fig, csv, err)
		}},
		{"x3", "FPGA utilization crossover", func(w io.Writer, csv bool) error {
			res, fig, err := experiments.UtilizationCrossover(0.4, 10, 1e6, 32)
			if err != nil {
				return err
			}
			if err := emitFigure(w, fig, csv); err != nil {
				return err
			}
			if !csv {
				fmt.Fprintf(w, "crossover volume: %.0f wafers at u=%.2f\n\n", res.Crossover, res.U)
			}
			return nil
		}},
		{"x4", "regularity → design cost", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.RegularityStudy(42)
			return emitTable(w, tbl, csv, err)
		}},
		{"x5", "gross die: exact vs approximations", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.GrossDieStudy([]float64{0.25, 0.5, 1, 2, 4})
			return emitTable(w, tbl, csv, err)
		}},
		{"x6", "wafer cost learning", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.WaferCostStudy(0.18,
				[]float64{0, 3, 6, 12, 24, 48},
				[]float64{1000, 10000, 100000})
			return emitFigure(w, fig, csv, err)
		}},
		{"x7", "mask amortization", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.MaskAmortization([]float64{0.25, 0.18, 0.13, 0.1}, 100, 1e6, 16)
			return emitFigure(w, fig, csv, err)
		}},
		{"x8", "layout style densities", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.LayoutDensityStudy(42)
			return emitTable(w, tbl, csv, err)
		}},
		{"x9", "Figure 3 stress", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.Figure3Stress(0.15, 0.05)
			return emitFigure(w, fig, csv, err)
		}},
		{"x10", "layout critical-area yield", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.LayoutYieldStudy(3.0, 4000, 7)
			return emitTable(w, tbl, csv, err)
		}},
		{"x11", "cost of test", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.TestCostStudy(
				[]float64{1e6, 10e6, 100e6},
				[]float64{0.4, 0.8})
			return emitTable(w, tbl, csv, err)
		}},
		{"x12", "multi-project wafers", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.MPWStudy([]float64{0.25, 0.18, 0.13, 0.1}, 10)
			return emitTable(w, tbl, csv, err)
		}},
		{"x13", "routability decompression", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.RoutabilityStudy([]float64{1.5, 2, 2.5, 3, 4}, 196, 4, 60, 11)
			return emitTable(w, tbl, csv, err)
		}},
		{"x14", "Table A1 priced", func(w io.Writer, csv bool) error {
			res, tbl, err := experiments.DeviceCostStudy()
			if err != nil {
				return err
			}
			if err := emitTable(w, tbl, csv); err != nil {
				return err
			}
			if !csv {
				fmt.Fprintf(w, "same-node (0.25 µm) Pentium II / K6 transistor-cost ratio: %.2f\n\n", res.K6OverPentium)
			}
			return nil
		}},
		{"x15", "cost uncertainty", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.UncertaintyStudy(20000, 17)
			return emitTable(w, tbl, csv, err)
		}},
		{"x16", "spatial wafer map", func(w io.Writer, csv bool) error {
			res, tbl, err := experiments.WaferMapStudy(4, 300, 3)
			if err != nil {
				return err
			}
			if err := emitTable(w, tbl, csv); err != nil {
				return err
			}
			if !csv {
				fmt.Fprintln(w, res.Rendered)
			}
			return nil
		}},
		{"x17", "time-to-market vs density", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.TTMStudy([]float64{36, 18, 12, 6})
			return emitTable(w, tbl, csv, err)
		}},
		{"x18", "MPU vs DRAM implied s_d", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.MPUvsDRAM()
			return emitFigure(w, fig, csv, err)
		}},
		{"x19", "synthetic SoC decomposition", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.SoCStudy(300, 21)
			return emitTable(w, tbl, csv, err)
		}},
		{"x20", "redundancy repair economics", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.RepairStudy([]float64{0.5, 1, 1.5, 2, 3}, 0.01)
			return emitTable(w, tbl, csv, err)
		}},
		{"x21", "family amortization", func(w io.Writer, csv bool) error {
			_, fig, err := experiments.FamilyStudy(8)
			return emitFigure(w, fig, csv, err)
		}},
		{"x22", "optimal fault coverage", func(w io.Writer, csv bool) error {
			_, tbl, err := experiments.TestEconomicsStudy([]float64{0.9, 0.7, 0.5, 0.3}, 50)
			return emitTable(w, tbl, csv, err)
		}},
	}
}

// run writes the artifact named only (every artifact when only is empty)
// to w, as rendered text or as CSV.
func run(ctx context.Context, w io.Writer, only string, csv bool) error {
	matched := false
	for _, a := range artifacts(ctx) {
		if only != "" && !strings.EqualFold(only, a.id) {
			continue
		}
		matched = true
		if !csv {
			fmt.Fprintf(w, "=== %s ===\n", a.id)
		}
		if err := a.run(w, csv); err != nil {
			return fmt.Errorf("%s: %w", a.id, err)
		}
	}
	if !matched {
		return fmt.Errorf("unknown artifact %q", only)
	}
	return nil
}

func emitTable(w io.Writer, tbl *report.Table, csv bool, errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if csv {
		fmt.Fprint(w, tbl.CSV())
		return nil
	}
	fmt.Fprintln(w, tbl.String())
	return nil
}

func emitFigure(w io.Writer, fig *report.Figure, csv bool, errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if csv {
		fmt.Fprint(w, fig.Table().CSV())
		return nil
	}
	if err := fig.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}
