package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mcjob"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// TestGolden pins the paper's published numbers: each result below is
// encoded as JSON and compared byte for byte with testdata/golden/<id>.json.
// encoding/json writes the shortest float that round-trips, so a change of
// even one ulp fails. `go test -run Golden -update .` regenerates the files;
// the diff then shows exactly which numbers moved.
func TestGolden(t *testing.T) {
	cases := []struct {
		id  string
		get func() (any, error)
	}{
		{"tablea1", func() (any, error) {
			rows, _, err := experiments.TableA1()
			return rows, err
		}},
		{"fig1", func() (any, error) {
			res, _, err := experiments.Figure1()
			return res, err
		}},
		{"fig2", func() (any, error) {
			rows, _, err := experiments.Figure2()
			return rows, err
		}},
		{"fig3", func() (any, error) {
			rows, _, err := experiments.Figure3()
			return rows, err
		}},
		{"fig4a", func() (any, error) { return figure4Golden(0) }},
		{"fig4b", func() (any, error) { return figure4Golden(1) }},
		{"x2", func() (any, error) {
			rows, _, err := experiments.YieldModelComparison([]float64{0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.4}, 1.0, 80_000, 7)
			return rows, err
		}},
		{"x3", func() (any, error) {
			res, _, err := experiments.UtilizationCrossover(0.4, 10, 1e6, 32)
			return res, err
		}},
		{"x18", func() (any, error) {
			rows, _, err := experiments.MPUvsDRAM()
			return rows, err
		}},
		{"x10", func() (any, error) {
			rows, _, err := experiments.LayoutYieldStudy(3.0, 4000, 7)
			return rows, err
		}},
		{"layoutdefect", layoutDefectGolden},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			v, err := c.get()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", c.id+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run Golden -update .` to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from %s; rerun with -update and review the diff", c.id, path)
			}
		})
	}
}

// figure4Golden computes one Figure 4 panel at 48 points, the resolution
// the figures CLI and the HTTP API use by default.
func figure4Golden(panel int) (any, error) {
	curves, _, err := experiments.Figure4(experiments.Figure4Cases()[panel], 48)
	return curves, err
}

// layoutDefectGolden runs the geometric defect Monte Carlo (mcjob's
// layoutdefect kind) on every layout style under three defect size
// distributions and two seeds. A change to the thrower that moves one
// fatal-defect verdict moves a count here.
func layoutDefectGolden() (any, error) {
	type run struct {
		Style  string       `json:"style"`
		SizeX0 float64      `json:"size_x0,omitempty"`
		SizeP  float64      `json:"size_p,omitempty"`
		Result mcjob.Result `json:"result"`
	}
	var runs []run
	for _, style := range []string{"sram", "datapath", "asic-tight", "asic-sparse"} {
		for _, size := range [][2]float64{{0, 0}, {2, 3}, {8, 2.2}} {
			for seed := uint64(1); seed <= 2; seed++ {
				spec := mcjob.LayoutDefectSpec{Style: style, MeanDefects: 1.5, SizeX0: size[0], SizeP: size[1]}
				k, err := mcjob.NewLayoutDefectKernel(spec)
				if err != nil {
					return nil, err
				}
				res, err := mcjob.Run(context.Background(), k, mcjob.RunConfig{Trials: 50_000, Shards: 4, Seed: seed})
				if err != nil {
					return nil, err
				}
				runs = append(runs, run{Style: style, SizeX0: size[0], SizeP: size[1], Result: res})
			}
		}
	}
	return runs, nil
}
