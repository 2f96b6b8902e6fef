package mcjob

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/stats"
	"repro/internal/yield"
)

// testScenario is a valid eq (4) scenario for the montecarlo kind.
func testScenario() core.UncertainScenario {
	return core.UncertainScenario{
		Base: core.Scenario{
			Process: core.Process{LambdaUM: 0.18, CostPerCM2: 8, Yield: 0.6, WaferAreaCM2: 300},
			Design:  core.Design{Transistors: 10e6, Sd: 300},
			// The default model has Sd0 = 100, so Sd draws straddling it
			// exercise the redraw path.
			DesignCost: core.DefaultDesignCostModel(),
			Wafers:     5000,
		},
		Yield: core.Uniform(0.3, 0.9),
		CmSq:  core.LogNormal(8, 1.4),
		Sd:    core.Uniform(50, 400),
	}
}

// testKernels returns every kernel kind over a small but multi-chunk
// trial count.
func testKernels(t *testing.T) []struct {
	name   string
	kernel Kernel
	trials int64
} {
	t.Helper()
	mk := func(k Kernel, err error) Kernel {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	return []struct {
		name   string
		kernel Kernel
		trials int64
	}{
		{"defect", mk(NewDefectKernel(DefectSpec{Lambda: 0.7})), 3*defectChunkTrials + 257},
		{"defect-clustered", mk(NewDefectKernel(DefectSpec{Lambda: 0.7, Alpha: 2})), 2*defectChunkTrials + 11},
		{"layoutdefect", mk(NewLayoutDefectKernel(LayoutDefectSpec{Style: "sram", MeanDefects: 1.2})), 3*layoutDefectChunkTrials + 100},
		{"montecarlo", mk(NewCostKernel(testScenario())), 3*costChunkTrials + 41},
		{"wafermap", mk(NewWaferMapKernel(yield.WaferMapConfig{
			UsableRadiusMM: 30, DieWMM: 6, DieHMM: 5, Lambda: 0.8,
			EdgeFactor: 2, ClusterAlpha: 1.5, Wafers: 24, Seed: 5,
		})), 24},
	}
}

// mustEqualResults fails unless a and b are identical to the bit,
// including the float values' exact representations and the JSON
// encodings the job API would serve.
func mustEqualResults(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Kind != b.Kind || a.Trials != b.Trials || a.Seed != b.Seed {
		t.Fatalf("%s: envelopes differ: %+v vs %+v", label, a, b)
	}
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatalf("%s: counts differ: %v vs %v", label, a.Counts, b.Counts)
	}
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: value keys differ: %v vs %v", label, a.Values, b.Values)
	}
	for key, av := range a.Values {
		bv, ok := b.Values[key]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			t.Fatalf("%s: value %q: %v (%x) vs %v (%x)", label, key, av, math.Float64bits(av), bv, math.Float64bits(bv))
		}
	}
}

// resultJSON marshals r with the Shards field zeroed: the shard count is
// reporting metadata, everything else must be byte-stable.
func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	r.Shards = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestShardedDeterminismMatrix(t *testing.T) {
	// The acceptance matrix: every kind, shard counts {1, 2, 8} × worker
	// counts {1, 4}, all bit-identical to the single-shard single-worker
	// serial reference.
	for _, tc := range testKernels(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Run(context.Background(), tc.kernel, RunConfig{Trials: tc.trials, Shards: 1, Workers: 1, Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			refJSON := resultJSON(t, ref)
			for _, shards := range []int{1, 2, 8} {
				for _, workers := range []int{1, 4} {
					got, err := Run(context.Background(), tc.kernel, RunConfig{Trials: tc.trials, Shards: shards, Workers: workers, Seed: 17})
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
					}
					label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
					mustEqualResults(t, label, ref, got)
					if gotJSON := resultJSON(t, got); gotJSON != refJSON {
						t.Fatalf("%s: JSON differs:\n%s\n%s", label, gotJSON, refJSON)
					}
				}
			}
		})
	}
}

func TestResumeAfterMidRunKillIsBitIdentical(t *testing.T) {
	// Kill the run after two shards complete, resume from the
	// checkpoint, and require the merged result — and its JSON — to be
	// byte-identical to an uninterrupted run with the same spec. The
	// resumed run must also actually resume, not redraw.
	for _, tc := range testKernels(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RunConfig{Trials: tc.trials, Shards: 8, Workers: 1, Seed: 23}
			uninterrupted, err := Run(context.Background(), tc.kernel, cfg)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			killed := cfg
			killed.CheckpointDir = dir
			ctx, cancel := context.WithCancel(context.Background())
			done := 0
			killed.OnProgress = func(p Progress) {
				done++
				if done == 2 {
					cancel()
				}
			}
			if _, err := Run(ctx, tc.kernel, killed); !errors.Is(err, context.Canceled) {
				t.Fatalf("killed run returned %v, want context.Canceled", err)
			}

			resumed := cfg
			resumed.CheckpointDir = dir
			resumed.Workers = 4
			var first Progress
			resumed.OnProgress = func(p Progress) {
				if first.Shards == 0 {
					first = p
				}
			}
			got, err := Run(context.Background(), tc.kernel, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if first.ShardsResumed < 2 {
				t.Fatalf("resume restored %d shards, want >= 2", first.ShardsResumed)
			}
			mustEqualResults(t, "resumed", uninterrupted, got)
			if resultJSON(t, got) != resultJSON(t, uninterrupted) {
				t.Fatal("resumed JSON differs from uninterrupted run")
			}
		})
	}
}

func TestResumeCompletedRunRedrawsNothing(t *testing.T) {
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := RunConfig{Trials: 3 * defectChunkTrials, Shards: 3, Workers: 1, Seed: 9, CheckpointDir: dir}
	first, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last Progress
	cfg.OnProgress = func(p Progress) { last = p }
	second, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last.ShardsResumed != 3 || last.ShardsDone != 3 {
		t.Fatalf("second run progress %+v, want everything resumed", last)
	}
	mustEqualResults(t, "fully-resumed", first, second)
}

func TestCheckpointSpecMismatchRefuses(t *testing.T) {
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(context.Background(), k, RunConfig{Trials: defectChunkTrials, Seed: 1, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]RunConfig{
		"seed":   {Trials: defectChunkTrials, Seed: 2, CheckpointDir: dir},
		"trials": {Trials: 2 * defectChunkTrials, Seed: 1, CheckpointDir: dir},
		"spec":   {Trials: defectChunkTrials, Seed: 1, CheckpointDir: dir, SpecHash: "deadbeef"},
	} {
		if _, err := Run(context.Background(), k, cfg); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("%s change: got %v, want ErrCheckpointMismatch", name, err)
		}
	}
}

// TestCheckpointRefusesVersion1Layout: a directory written by the old
// layout (a shard-record log beside a separate events journal) carries a
// version-1 manifest, and is refused rather than misread.
func TestCheckpointRefusesVersion1Layout(t *testing.T) {
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := RunConfig{Trials: defectChunkTrials, Seed: 1, CheckpointDir: dir}
	v1 := manifest{Version: 1, Kind: k.Kind(), Trials: cfg.Trials, ChunkTrials: defectChunkTrials, Shards: 1, Seed: 1}
	if err := os.WriteFile(filepath.Join(dir, manifestName), mustJSON(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), k, cfg); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("version-1 directory: got %v, want ErrCheckpointMismatch", err)
	}
	v1.Version = checkpointVersion
	if err := os.WriteFile(filepath.Join(dir, manifestName), mustJSON(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), k, cfg); err != nil {
		t.Fatalf("same manifest at version %d: %v", checkpointVersion, err)
	}
}

func TestCheckpointToleratesTornAndGarbageLines(t *testing.T) {
	// A kill -9 can tear the final shard line; stray garbage must not
	// poison the resume — damaged shards just rerun.
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Trials: 4 * defectChunkTrials, Shards: 4, Workers: 1, Seed: 31}
	ref, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	if _, err := Run(context.Background(), k, cfg); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, shardLogName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-way through the last line that carries a shard (the
	// events logged after it go too) and append junk.
	end := bytes.LastIndex(data, []byte(`"chunks"`))
	end += bytes.IndexByte(data[end:], '\n') - 20
	damaged := append(data[:end:end], []byte("\nnot json at all\n{\"shard\":99,\"chunks\":[]}\n")...)
	if err := os.WriteFile(logPath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	var last Progress
	cfg.OnProgress = func(p Progress) { last = p }
	got, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last.ShardsResumed == 0 || last.ShardsResumed >= 4 {
		t.Fatalf("resumed %d shards, want partial restore", last.ShardsResumed)
	}
	mustEqualResults(t, "damaged-log", ref, got)
}

func TestRunValidation(t *testing.T) {
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), nil, RunConfig{Trials: 1}); err == nil {
		t.Fatal("accepted nil kernel")
	}
	if _, err := Run(context.Background(), k, RunConfig{Trials: 0}); err == nil {
		t.Fatal("accepted zero trials")
	}
	wm, err := NewWaferMapKernel(yield.WaferMapConfig{
		UsableRadiusMM: 30, DieWMM: 6, DieHMM: 5, Lambda: 0.5, Wafers: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), wm, RunConfig{Trials: 5}); err == nil {
		t.Fatal("wafermap accepted trials beyond the configured lot")
	}
	if _, err := Run(context.Background(), wm, RunConfig{Trials: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestShardCountNormalization(t *testing.T) {
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Two chunks cannot carry eight shards: the count clamps, and the
	// normalized value is what the result reports.
	res, err := Run(context.Background(), k, RunConfig{Trials: 2 * defectChunkTrials, Shards: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 2 {
		t.Fatalf("shards = %d, want clamp to 2 chunks", res.Shards)
	}
	// Default shard count caps at defaultShards.
	res, err = Run(context.Background(), k, RunConfig{Trials: defectChunkTrials, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 1 {
		t.Fatalf("shards = %d, want 1", res.Shards)
	}
}

// TestDefectKernelStatisticalSanity holds the unclustered defect kind to
// Poisson, exp(-λ), within 4σ at 2²⁰ trials, and its realized mean rate
// to λ. yield's TestSimulateMatchesNegBinomial holds the clustered kind
// to the negative binomial.
func TestDefectKernelStatisticalSanity(t *testing.T) {
	t.Run("poisson", func(t *testing.T) {
		const lambda = 0.7
		k, err := NewDefectKernel(DefectSpec{Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), k, RunConfig{Trials: 1 << 20, Shards: 16, Workers: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-lambda)
		if got := res.Values["yield"]; math.Abs(got-want) > 4*res.Values["stderr"] {
			t.Fatalf("yield %v too far from exp(-λ) = %v (stderr %v)", got, want, res.Values["stderr"])
		}
		if mean := res.Values["mean_lambda"]; math.Abs(mean-lambda) > 0.01*lambda {
			t.Fatalf("realized mean rate %v, want %v", mean, lambda)
		}
		if res.Counts["good"] <= 0 || res.Counts["defects"] <= 0 {
			t.Fatalf("counts not populated: %v", res.Counts)
		}
	})
}

// TestDefectChunkMatchesPerTrialLoop holds the unclustered defect
// chunk, one PoissonCounts call with a precomputed rate sum, to the
// per-trial loop it replaced: the same partial, bit for bit, and the
// same stream afterwards, on full and short chunks and across the
// Knuth, zero-rate and normal-approximation regimes.
func TestDefectChunkMatchesPerTrialLoop(t *testing.T) {
	for _, lambda := range []float64{0, 1e-9, 0.9, 3.5, 29.999, 30, 45} {
		k, err := NewDefectKernel(DefectSpec{Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		expLambda := math.Exp(-lambda)
		for _, n := range []int64{1, 100, defectChunkTrials - 1, defectChunkTrials} {
			a, b := stats.NewRNG(5), stats.NewRNG(5)
			got, err := k.Chunk(0, n, a)
			if err != nil {
				t.Fatal(err)
			}
			var want Partial
			for i := int64(0); i < n; i++ {
				c := b.PoissonL(lambda, expLambda)
				want.Trials++
				want.Events += int64(c)
				want.Sum += lambda
				if c == 0 {
					want.Good++
				}
			}
			if got != want || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
				t.Fatalf("λ %v, %d trials: chunk %+v, per-trial loop %+v", lambda, n, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("λ %v, %d trials: chunk left the stream elsewhere", lambda, n)
			}
		}
	}
}

func TestProgressAccounting(t *testing.T) {
	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	cfg := RunConfig{Trials: 5*defectChunkTrials + 3, Shards: 5, Workers: 1, Seed: 1,
		OnProgress: func(p Progress) { snaps = append(snaps, p) }}
	if _, err := Run(context.Background(), k, cfg); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 5 {
		t.Fatalf("got %d progress snapshots, want 5", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.ShardsDone != 5 || last.TrialsDone != cfg.Trials || last.Trials != cfg.Trials {
		t.Fatalf("final snapshot %+v", last)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].TrialsDone <= snaps[i-1].TrialsDone {
			t.Fatal("trials done not monotonic")
		}
	}
}

func TestKernelSpecValidation(t *testing.T) {
	if _, err := NewDefectKernel(DefectSpec{Lambda: -1}); err == nil {
		t.Fatal("accepted negative lambda")
	}
	if _, err := NewDefectKernel(DefectSpec{Lambda: math.NaN()}); err == nil {
		t.Fatal("accepted NaN lambda")
	}
	if _, err := NewDefectKernel(DefectSpec{Lambda: 1, Alpha: -1}); err == nil {
		t.Fatal("accepted negative alpha")
	}
	if _, err := NewLayoutDefectKernel(LayoutDefectSpec{Style: "nope", MeanDefects: 1}); err == nil {
		t.Fatal("accepted unknown style")
	}
	if _, err := NewLayoutDefectKernel(LayoutDefectSpec{Style: "sram", MeanDefects: -1}); err == nil {
		t.Fatal("accepted negative rate")
	}
	if _, err := NewLayoutDefectKernel(LayoutDefectSpec{Style: "sram", MeanDefects: 1, SizeX0: -2, SizeP: 3}); err == nil {
		t.Fatal("accepted negative size peak")
	}
	if _, err := NewLayoutKernel(&layout.Layout{Name: "empty"}, 1, yield.DefaultDefectSizeDist(1)); err == nil {
		t.Fatal("accepted a layout with no area")
	}
	if _, err := NewCostKernel(core.UncertainScenario{}); err == nil {
		t.Fatal("accepted zero scenario")
	}
	if _, err := NewWaferMapKernel(yield.WaferMapConfig{}); err == nil {
		t.Fatal("accepted zero wafer config")
	}
}
