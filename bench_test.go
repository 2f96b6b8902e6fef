package repro_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/maskcost"
	"repro/internal/mcjob"
	"repro/internal/parallel"
	"repro/internal/regularity"
	"repro/internal/serve"
	"repro/internal/wafer"
	"repro/internal/yield"
)

// The benchmarks below regenerate every table and figure of the paper
// (T-A1, F-1…F-4) and every extension study from DESIGN.md's experiment
// index (X-1…X-8). Run `go test -bench=. -benchmem` to execute the full
// harness; `cmd/figures` prints the same artifacts in readable form.

func BenchmarkTableA1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.TableA1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 49 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if res.IndustryTrend.Slope <= 0 {
			b.Fatal("industry trend not positive")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if rows[len(rows)-1].Ratio <= rows[0].Ratio {
			b.Fatal("ratio not rising")
		}
	}
}

func BenchmarkFigure4a(b *testing.B) {
	benchFigure4(b, experiments.Figure4Cases()[0])
}

func BenchmarkFigure4b(b *testing.B) {
	benchFigure4(b, experiments.Figure4Cases()[1])
}

func benchFigure4(b *testing.B, c experiments.Figure4Case) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		curves, _, err := experiments.Figure4(c, 60)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) == 0 {
			b.Fatal("no curves")
		}
	}
}

func BenchmarkOptimalSd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.OptimalSdVsVolume(500, 1e6, 12)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].OptimalSd <= rows[len(rows)-1].OptimalSd {
			b.Fatal("optimum did not move with volume")
		}
	}
}

func BenchmarkYieldModels(b *testing.B) {
	lambdas := []float64{0.2, 0.6, 1.2}
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.YieldModelComparison(lambdas, 1.0, 12_000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.UtilizationCrossover(0.4, 10, 1e6, 24)
		if err != nil {
			b.Fatal(err)
		}
		if res.Crossover <= 0 {
			b.Fatal("no crossover")
		}
	}
}

func BenchmarkRegularity(b *testing.B) {
	if _, _, err := experiments.RegularityStudy(1); err != nil { // warm pools + style layouts
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.RegularityStudy(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("styles missing")
		}
	}
}

func BenchmarkGrossDie(b *testing.B) {
	areas := []float64{0.5, 1, 2, 4}
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.GrossDieStudy(areas)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaferCost(b *testing.B) {
	months := []float64{0, 6, 12, 24, 48}
	vols := []float64{1000, 10000, 100000}
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.WaferCostStudy(0.18, months, vols)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaskAmortization(b *testing.B) {
	nodes := []float64{0.25, 0.18, 0.13, 0.1}
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.MaskAmortization(nodes, 100, 1e6, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// layoutDensitySeed is the last seed BenchmarkLayoutDensity timed. The
// study memoizes its rows per seed, so every timed iteration, across
// b.N rounds and -count runs, takes a seed nothing in the process has
// used, above the small seeds the figures and tests use.
var layoutDensitySeed uint64 = 1 << 32

func BenchmarkLayoutDensity(b *testing.B) {
	if _, _, err := experiments.LayoutDensityStudy(0); err != nil { // warm pools + style layouts
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layoutDensitySeed++
		rows, _, err := experiments.LayoutDensityStudy(layoutDensitySeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("styles missing")
		}
	}
}

func BenchmarkFigure3Stress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure3Stress(0.15, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkLayoutYield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.LayoutYieldStudy(3.0, 1500, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("styles missing")
		}
	}
}

func BenchmarkTestCost(b *testing.B) {
	sizes := []float64{1e6, 10e6, 100e6}
	yields := []float64{0.4, 0.8}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TestCostStudy(sizes, yields); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPW(b *testing.B) {
	nodes := []float64{0.25, 0.18, 0.13, 0.1}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.MPWStudy(nodes, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutability(b *testing.B) {
	fanouts := []float64{1.5, 2.5, 4}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RoutabilityStudy(fanouts, 144, 4, 60, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.DeviceCostStudy()
		if err != nil {
			b.Fatal(err)
		}
		if res.K6OverPentium <= 1 {
			b.Fatal("K6 comparison inverted")
		}
	}
}

func BenchmarkUncertainty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.UncertaintyStudy(2000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaferMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.WaferMapStudy(4, 100, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Sites == 0 {
			b.Fatal("no sites")
		}
	}
}

func BenchmarkTTM(b *testing.B) {
	taus := []float64{36, 12, 6}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TTMStudy(taus); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPUvsDRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.MPUvsDRAM()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkSoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.SoCStudy(300, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.SdChip <= 0 {
			b.Fatal("bad decomposition")
		}
	}
}

func BenchmarkRepair(b *testing.B) {
	lambdas := []float64{0.5, 1.5, 3}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RepairStudy(lambdas, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.FamilyStudy(8)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("rows missing")
		}
	}
}

func BenchmarkTestEconomics(b *testing.B) {
	yields := []float64{0.9, 0.7, 0.5, 0.3}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TestEconomicsStudy(yields, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the hot substrate paths, so regressions in the
// underlying algorithms are visible independently of the experiment
// harness.

func BenchmarkScenarioTransistorCost(b *testing.B) {
	s, err := experiments.Figure4Scenario(experiments.Figure4Cases()[0], 0.18)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TransistorCost(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalSdSingle(b *testing.B) {
	s, err := experiments.Figure4Scenario(experiments.Figure4Cases()[0], 0.18)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimalSd(s, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGrossDieExact(b *testing.B) {
	d := wafer.SquareDie(1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wafer.GrossDie(wafer.Wafer300, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegularityScan(b *testing.B) {
	l, err := layout.GenerateRandomLogic(layout.RandomLogicConfig{
		Cells: 400, RowUtil: 0.7, RouteTracks: 4, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := regularity.Analyze(l, 60); err != nil { // warm the scanner pool
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regularity.Analyze(l, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalArea(b *testing.B) {
	l, err := layout.GenerateRandomLogic(layout.RandomLogicConfig{
		Cells: 200, RowUtil: 0.7, RouteTracks: 4, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := layout.CriticalArea(l, layout.Metal1, 4); err != nil { // warm the evaluator pool
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.CriticalArea(l, layout.Metal1, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCritAreaAverage times the critical-area fill that
// experiments' avgCriticalFraction runs for X-10: build one CritEvaluator
// for the layer, then integrate its Area kernel against the defect-size
// density. BenchmarkCriticalArea above times layout.CriticalArea, the
// test reference for this path.
func BenchmarkCritAreaAverage(b *testing.B) {
	l, err := layout.GenerateRandomLogic(layout.RandomLogicConfig{
		Cells: 200, RowUtil: 0.7, RouteTracks: 4, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	dist := yield.DefectSizeDist{X0: 2, P: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := layout.NewCritEvaluator(l, layout.Metal1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := yield.AverageCriticalArea(dist, ev.Area, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial-vs-parallel pairs for the hot paths wired into the
// internal/parallel engine. Each parallel variant first asserts
// bit-identical output against the serial baseline (determinism is
// enforced, not assumed), then measures throughput at all cores. Compare
// with: go test -bench 'MonteCarlo(Serial|Parallel)' -benchmem

const benchMCSamples = 100000

func benchUncertain(b *testing.B) core.UncertainScenario {
	b.Helper()
	s, err := experiments.Figure4Scenario(experiments.Figure4Cases()[0], 0.18)
	if err != nil {
		b.Fatal(err)
	}
	return core.UncertainScenario{
		Base:  s,
		Yield: core.Uniform(0.3, 0.9),
		CmSq:  core.LogNormal(8, 1.4),
		Sd:    core.Uniform(150, 600),
	}
}

func BenchmarkMonteCarloSerial(b *testing.B) {
	u := benchUncertain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.MonteCarloRun(benchMCSamples, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloParallel(b *testing.B) {
	u := benchUncertain(b)
	ref, err := u.MonteCarloRun(benchMCSamples, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		got, err := u.MonteCarloRun(benchMCSamples, 1, w)
		if err != nil {
			b.Fatal(err)
		}
		if got.Redraws != ref.Redraws {
			b.Fatalf("workers=%d: redraws diverge", w)
		}
		for i := range ref.Samples {
			if got.Samples[i] != ref.Samples[i] {
				b.Fatalf("workers=%d: sample %d diverges from serial", w, i)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.MonteCarloRun(benchMCSamples, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWaferMapConfig(workers int) yield.WaferMapConfig {
	return yield.WaferMapConfig{
		UsableRadiusMM: 145,
		DieWMM:         6, DieHMM: 6,
		Lambda: 0.5, EdgeFactor: 3, ClusterAlpha: 1,
		Wafers: 200, Seed: 9, Workers: workers,
	}
}

func BenchmarkWaferMapSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := yield.SimulateWaferMap(benchWaferMapConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaferMapParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := yield.SimulateWaferMap(benchWaferMapConfig(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	s, err := experiments.Figure4Scenario(experiments.Figure4Cases()[0], 0.18)
	if err != nil {
		b.Fatal(err)
	}
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := core.SweepSdCtx(context.Background(), s, 110, 2000, 2000)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 2000 {
			b.Fatal("short sweep")
		}
	}
}

func BenchmarkSweepSdSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepSdParallel(b *testing.B) { benchSweep(b, 0) }

// Throughput benchmarks for the arena-backed batch paths and the
// vectorized wafer-map kernel. Each reports a custom metric
// (evals/sec, sims/sec) via b.ReportMetric; cmd/benchcmp compares those
// against the recorded baseline between multi-core hosts.

func benchBatchScenarios(b *testing.B, n int) []core.Scenario {
	b.Helper()
	s, err := experiments.Figure4Scenario(experiments.Figure4Cases()[0], 0.18)
	if err != nil {
		b.Fatal(err)
	}
	scs := make([]core.Scenario, n)
	for i := range scs {
		sc := s
		sc.Design.Sd = 150 + float64(i%600)
		scs[i] = sc
	}
	return scs
}

// BenchmarkEvalBatch1024: the core batch engine on a warm arena — the
// steady state the serving layer holds it in. Allocations here are the
// fixed dispatch cost, not per item.
func BenchmarkEvalBatch1024(b *testing.B) {
	const n = 1024
	scs := benchBatchScenarios(b, n)
	var a core.BatchArena
	ctx := b.Context()
	if _, _, err := a.EvalBatchInto(ctx, scs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.EvalBatchInto(ctx, scs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*n/secs, "evals/sec")
	}
}

// BenchmarkServeBatch1024: the same 1024 evaluations through the full
// HTTP stack — decode, pooled scratch, parallel fan-out, response
// encode — which is what /v1/batch clients actually observe.
func BenchmarkServeBatch1024(b *testing.B) {
	const n = 1024
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf(`{"kind":"cost","body":{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":%d},"wafers":5000}}`, 150+i%600)
	}
	payload := `{"items":[` + strings.Join(items, ",") + `]}`
	s := serve.NewServer(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()
	{ // warm the scratch pool so a 1x run measures the steady state
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(payload))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d", rec.Code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(payload))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*n/secs, "evals/sec")
	}
}

// BenchmarkWaferMapSims: wafer-map Monte Carlo throughput in whole-wafer
// simulations per second, on the vectorized site-factor/exp-LUT kernel.
func BenchmarkWaferMapSims(b *testing.B) {
	cfg := benchWaferMapConfig(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yield.SimulateWaferMap(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(cfg.Wafers)/secs, "sims/sec")
	}
}

// BenchmarkShardedMC: the sharded Monte Carlo engine end to end — shard
// planning, the per-chunk stream walk, kernel evaluation across all
// workers and the canonical-order merge — in trials per second on the
// defect kernel. This is the giga-trial job path /v1/jobs, yieldsim
// and X-2 run on.
func BenchmarkShardedMC(b *testing.B) {
	k, err := mcjob.NewDefectKernel(mcjob.DefectSpec{Lambda: 1.1})
	if err != nil {
		b.Fatal(err)
	}
	const trials = 1 << 21
	cfg := mcjob.RunConfig{Trials: trials, Shards: 8, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcjob.Run(b.Context(), k, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*trials/secs, "trials/sec")
	}
}

// BenchmarkLayoutDefectJob: the geometric defect kind through the
// sharded engine, on the spec of fleetbench's jobs list (sram, 1.5
// defects per die, 3×10⁵ trials, 16 shards), in trials per second. The
// thrower's binned fatal test is the hot path.
func BenchmarkLayoutDefectJob(b *testing.B) {
	k, err := mcjob.NewLayoutDefectKernel(mcjob.LayoutDefectSpec{Style: "sram", MeanDefects: 1.5})
	if err != nil {
		b.Fatal(err)
	}
	const trials = 300_000
	cfg := mcjob.RunConfig{Trials: trials, Shards: 16, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcjob.Run(b.Context(), k, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*trials/secs, "trials/sec")
	}
}

// BenchmarkJobKernels times each kernel kind alone: the kernel layer of
// fleetbench's jobs workload, on the exact specs of its job list at seed
// 1. Every shard of a 16-shard plan is evaluated through
// ShardEvaluator.EvalShard on one goroutine, reported in ns per trial;
// no scheduling, upload, merge or checkpoint is timed.
func BenchmarkJobKernels(b *testing.B) {
	mask, err := maskcost.DefaultModel().SetCost(0.18)
	if err != nil {
		b.Fatal(err)
	}
	costBase := core.Scenario{
		Process:    core.Process{LambdaUM: 0.18, CostPerCM2: 8, Yield: 0.6, WaferAreaCM2: 300},
		Design:     core.Design{Transistors: 1e7, Sd: 300},
		DesignCost: core.DefaultDesignCostModel(),
		MaskCost:   mask,
		Wafers:     5000,
	}
	const wafers = 2_000
	jobs := []struct {
		kind   string
		trials int64
		kernel func() (mcjob.Kernel, error)
	}{
		{"defect", 40_000_000, func() (mcjob.Kernel, error) {
			return mcjob.NewDefectKernel(mcjob.DefectSpec{Lambda: 0.9})
		}},
		{"layoutdefect", 300_000, func() (mcjob.Kernel, error) {
			return mcjob.NewLayoutDefectKernel(mcjob.LayoutDefectSpec{Style: "sram", MeanDefects: 1.5})
		}},
		{"montecarlo", 4_000_000, func() (mcjob.Kernel, error) {
			return mcjob.NewCostKernel(core.UncertainScenario{Base: costBase,
				Yield: core.Uniform(0.3, 0.9), Sd: core.LogNormal(400, 1.3)})
		}},
		{"wafermap", wafers, func() (mcjob.Kernel, error) {
			return mcjob.NewWaferMapKernel(yield.WaferMapConfig{UsableRadiusMM: 145, DieWMM: 10, DieHMM: 12,
				Lambda: 0.8, ClusterAlpha: 2, Wafers: wafers, Seed: 1})
		}},
	}
	for _, j := range jobs {
		b.Run(j.kind, func(b *testing.B) {
			k, err := j.kernel()
			if err != nil {
				b.Fatal(err)
			}
			e, err := mcjob.NewShardEvaluator(k, mcjob.RunConfig{Trials: j.trials, Shards: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < 16; s++ {
					if _, err := e.EvalShard(b.Context(), s); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(j.trials)), "ns/trial")
		})
	}
}
