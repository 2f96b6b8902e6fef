// Command yieldsim runs Monte Carlo yield experiments and compares the
// measurement with the analytic models, from flags.
//
// Example:
//
//	yieldsim -d0 0.5 -area 1.5 -alpha 0.8 -die 400 -wafers 300
//
// The die·wafers trials run through the sharded mcjob engine's defect
// kind: a Poisson number of fatal defects per die, its rate drawn per
// die from a gamma law when -alpha is set. -checkpoint persists
// completed shards so a killed run resumes where it stopped; a rerun
// over the same directory under any other flag than -workers is
// refused. The result is independent of shard count, worker count and
// resume history; only the "sharded run:" line names the shard count.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"

	"repro/internal/cliutil"
	"repro/internal/mcjob"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/yield"
)

func main() {
	var (
		d0         = flag.Float64("d0", 0.5, "defect density, defects/cm²")
		area       = flag.Float64("area", 1.0, "critical area per die, cm²")
		alpha      = flag.Float64("alpha", 0, "clustering α (0 = unclustered)")
		die        = flag.Int("die", 400, "die per wafer")
		wafers     = flag.Int("wafers", 200, "wafers to simulate")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		workers    = flag.Int("workers", 0, "simulation goroutines (0 = all cores); results are identical for any value")
		shards     = flag.Int("shards", 0, "shard count (0 = one per 8192-trial chunk, at most 64); results are identical for any value")
		checkpoint = flag.String("checkpoint", "", "directory that keeps completed shards; a rerun with the same flags resumes from it")
	)
	o := &obs.Flags{}
	o.RegisterFlags(flag.CommandLine)
	prof := profiling.Register()
	flag.Parse()
	cliutil.Validate(prof, o)
	slog.SetDefault(o.Logger(os.Stderr))

	parallel.SetDefaultWorkers(*workers)
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "yieldsim: %v\n", err)
		os.Exit(1)
	}
	_ = o.StartRoot(context.Background(), "yieldsim.run")
	err := runSharded(os.Stdout, os.Stderr, *d0, *area, *alpha, *die, *wafers, *seed, *workers, *shards, *checkpoint)
	o.Finish(os.Stderr)
	if perr := prof.Stop(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "yieldsim: %v\n", err)
		os.Exit(1)
	}
}

// runSharded evaluates the experiment through the sharded mcjob engine:
// die·wafers independent die trials under the chosen yield law, split
// into shards, optionally checkpointed. The report goes to w, a line
// per completed shard to progress.
func runSharded(w, progress io.Writer, d0, area, alpha float64, die, wafers int, seed uint64, workers, shards int, checkpoint string) error {
	lambda, err := yield.Lambda(d0, area)
	if err != nil {
		return err
	}
	if die <= 0 || wafers <= 0 {
		return fmt.Errorf("die per wafer and wafers must be positive, got %d and %d", die, wafers)
	}
	spec := mcjob.DefectSpec{Lambda: lambda, Alpha: alpha}
	k, err := mcjob.NewDefectKernel(spec)
	if err != nil {
		return err
	}
	// The checkpoint manifest pins the law too, so a rerun under other
	// -d0, -area or -alpha is refused rather than resumed.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var mu sync.Mutex // OnProgress may run on several workers at once
	res, err := mcjob.Run(context.Background(), k, mcjob.RunConfig{
		Trials:        int64(die) * int64(wafers),
		Shards:        shards,
		Seed:          seed,
		Workers:       workers,
		CheckpointDir: checkpoint,
		SpecHash:      fmt.Sprintf("%x", sha256.Sum256(specJSON)),
		OnProgress: func(p mcjob.Progress) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(progress, "shard %d/%d done (%d/%d trials)\n",
				p.ShardsDone, p.Shards, p.TrialsDone, p.Trials)
		},
	})
	if err != nil {
		return err
	}
	good, total, measured := res.Counts["good"], res.Trials, res.Values["yield"]
	fmt.Fprintf(w, "λ = D0·A = %s fatal defects/die\n", report.Num(lambda))
	fmt.Fprintf(w, "sharded run: %d shards, seed %d\n", res.Shards, res.Seed)
	fmt.Fprintf(w, "measured yield: %s ± %s  (%d/%d good die)\n\n",
		report.Num(measured), report.Num(res.Values["stderr"]), good, total)
	tbl := report.NewTable("analytic models", "model", "yield", "Δ vs measured")
	models := []yield.Model{yield.Poisson{}, yield.Murphy{}, yield.Seeds{}}
	if alpha > 0 {
		models = append(models, yield.NegBinomial{Alpha: alpha})
	}
	for _, m := range models {
		y := m.Yield(lambda)
		tbl.AddRow(m.Name(), y, y-measured)
	}
	fmt.Fprintln(w, tbl.String())
	return nil
}
