package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const baseJSON = `{
  "ncpu": 1,
  "parallel_pairs_informative": false,
  "parallel_pairs_note": "recorded on 1 CPU",
  "benchmarks": [
    {"name": "BenchmarkLayoutYield-1", "iterations": 1, "ns_per_op": 2.0e9, "bytes_per_op": 1000000, "allocs_per_op": 100},
    {"name": "BenchmarkCriticalArea-1", "iterations": 10, "ns_per_op": 7.0e6, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BenchmarkTableA1-1", "iterations": 100, "ns_per_op": 1.0e6, "bytes_per_op": 50000, "allocs_per_op": 10}
  ]
}`

// multiJSON is a baseline recorded on a multi-core host, carrying a
// custom throughput metric — the shape BENCH_PR6.json takes on capable
// hardware.
const multiJSON = `{
  "ncpu": 8,
  "parallel_pairs_informative": true,
  "parallel_pairs_note": "serial-vs-parallel pairs recorded on 8 CPUs",
  "benchmarks": [
    {"name": "BenchmarkLayoutYield-8", "iterations": 10, "ns_per_op": 1.0e8, "bytes_per_op": 1000000, "allocs_per_op": 100},
    {"name": "BenchmarkServeBatch1024-8", "iterations": 50, "ns_per_op": 2.0e7, "bytes_per_op": 500000, "allocs_per_op": 2000, "metrics": {"evals/sec": 50000}},
    {"name": "BenchmarkMonteCarloSerial-8", "iterations": 5, "ns_per_op": 4.0e8, "bytes_per_op": 1000, "allocs_per_op": 10}
  ]
}`

func defaultGates() gates {
	return gates{bytesThreshold: 0.20, bytesSlack: 4096, nsThreshold: 0.30, nsSlack: 500, metricThreshold: 0.30}
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCanonicalStripsGomaxprocsSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkLayoutYield-8":  "BenchmarkLayoutYield",
		"BenchmarkLayoutYield-16": "BenchmarkLayoutYield",
		"BenchmarkLayoutYield":    "BenchmarkLayoutYield",
		"BenchmarkFigure4a-2":     "BenchmarkFigure4a",
		"BenchmarkFigure4a":       "BenchmarkFigure4a",
	}
	for in, want := range cases {
		if got := canonical(in); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchText(t *testing.T) {
	text := `goos: linux
goarch: amd64
BenchmarkLayoutYield-1   	       2	 600000000 ns/op	 1500000 B/op	    5000 allocs/op
BenchmarkCriticalArea-1     	     100	   7000000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	3.2s`
	res, err := parseBenchText([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d results, want 2", len(res))
	}
	ly := res["BenchmarkLayoutYield"]
	if ly.bytesPerOp != 1500000 || ly.nsPerOp != 600000000 {
		t.Fatalf("LayoutYield parsed as %+v", ly)
	}
	if res["BenchmarkCriticalArea"].bytesPerOp != 0 {
		t.Fatalf("CriticalArea bytes/op = %v, want 0", res["BenchmarkCriticalArea"].bytesPerOp)
	}
}

func TestParseBenchTextCustomMetrics(t *testing.T) {
	text := `BenchmarkServeBatch1024-8   	      50	  20000000 ns/op	     51200 evals/sec	  500000 B/op	    2000 allocs/op
BenchmarkWaferMapSims-8     	      30	  40000000 ns/op	      1250 sims/sec	       0 B/op	       0 allocs/op`
	res, err := parseBenchText([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := res["BenchmarkServeBatch1024"].metrics["evals/sec"]; got != 51200 {
		t.Fatalf("evals/sec = %v, want 51200", got)
	}
	if got := res["BenchmarkWaferMapSims"].metrics["sims/sec"]; got != 1250 {
		t.Fatalf("sims/sec = %v, want 1250", got)
	}
	// Standard units must not leak into the custom-metric map.
	if m := res["BenchmarkServeBatch1024"].metrics; len(m) != 1 {
		t.Fatalf("custom metrics = %v, want only evals/sec", m)
	}
}

func TestLoadBaselineNote(t *testing.T) {
	path := writeTemp(t, "base.json", baseJSON)
	res, m, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("loaded %d benchmarks, want 3", len(res))
	}
	if m.ncpu != 1 || m.pairsInformative || !strings.Contains(m.note, "1 CPU") {
		t.Fatalf("meta = %+v, want 1 CPU, uninformative pairs", m)
	}
	if res["BenchmarkLayoutYield"].bytesPerOp != 1000000 {
		t.Fatalf("bytes/op = %v", res["BenchmarkLayoutYield"].bytesPerOp)
	}
}

func TestLoadBaselineMetrics(t *testing.T) {
	path := writeTemp(t, "multi.json", multiJSON)
	res, m, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.ncpu != 8 || !m.pairsInformative {
		t.Fatalf("meta = %+v, want 8 CPUs with informative pairs", m)
	}
	if got := res["BenchmarkServeBatch1024"].metrics["evals/sec"]; got != 50000 {
		t.Fatalf("evals/sec = %v, want 50000", got)
	}
}

func TestRunPassesOnImprovementAndUnpinnedRegression(t *testing.T) {
	base := writeTemp(t, "base.json", baseJSON)
	// LayoutYield improves 10x; TableA1 (unpinned) doubles — must pass.
	newRun := writeTemp(t, "new.txt", strings.Join([]string{
		"BenchmarkLayoutYield-1 2 500000000 ns/op 100000 B/op 500 allocs/op",
		"BenchmarkCriticalArea-1 100 7000000 ns/op 0 B/op 0 allocs/op",
		"BenchmarkTableA1-1 100 1000000 ns/op 100000 B/op 20 allocs/op",
	}, "\n"))
	if err := run(base, newRun, defaultGates(), defaultPinned); err != nil {
		t.Fatalf("expected pass, got: %v", err)
	}
}

func TestRunFailsOnPinnedRegression(t *testing.T) {
	base := writeTemp(t, "base.json", baseJSON)
	newRun := writeTemp(t, "new.txt",
		"BenchmarkLayoutYield-1 2 500000000 ns/op 2000000 B/op 500 allocs/op\n")
	err := run(base, newRun, defaultGates(), defaultPinned)
	if err == nil {
		t.Fatal("expected failure on 2x pinned bytes/op regression")
	}
	if !strings.Contains(err.Error(), "BenchmarkLayoutYield") {
		t.Fatalf("failure does not name the benchmark: %v", err)
	}
}

func TestRunSlackAbsorbsTinyAbsoluteRegressions(t *testing.T) {
	base := writeTemp(t, "base.json", baseJSON)
	// CriticalArea goes 0 -> 128 B/op: huge relative delta, tiny absolute —
	// the slack must absorb it.
	newRun := writeTemp(t, "new.txt", strings.Join([]string{
		"BenchmarkLayoutYield-1 2 500000000 ns/op 1000000 B/op 500 allocs/op",
		"BenchmarkCriticalArea-1 100 7000000 ns/op 128 B/op 1 allocs/op",
	}, "\n"))
	if err := run(base, newRun, defaultGates(), defaultPinned); err != nil {
		t.Fatalf("slack did not absorb 128 B regression: %v", err)
	}
}

// The ns/op gate must stay silent when the baseline was recorded on one
// CPU, no matter how large the wall-clock delta looks.
func TestRunSkipsNsGateAgainstSingleCoreBaseline(t *testing.T) {
	base := writeTemp(t, "base.json", baseJSON)
	// 5x ns/op "regression" vs a single-core baseline: not gateable.
	newRun := writeTemp(t, "new.txt",
		"BenchmarkLayoutYield-1 2 10000000000 ns/op 1000000 B/op 500 allocs/op\n")
	if err := run(base, newRun, defaultGates(), defaultPinned); err != nil {
		t.Fatalf("ns gate fired against single-core baseline: %v", err)
	}
}

// Between two multi-core recordings, a pinned ns/op blowup fails the gate.
func TestRunGatesNsBetweenMultiCoreRuns(t *testing.T) {
	base := writeTemp(t, "base.json", multiJSON)
	slow := strings.Replace(multiJSON, `"ns_per_op": 1.0e8`, `"ns_per_op": 5.0e8`, 1)
	newRun := writeTemp(t, "new.json", slow)
	err := run(base, newRun, defaultGates(), defaultPinned)
	if err == nil {
		t.Fatal("expected ns/op gate failure between multi-core runs")
	}
	if !strings.Contains(err.Error(), "ns/op") || !strings.Contains(err.Error(), "BenchmarkLayoutYield") {
		t.Fatalf("failure does not name the ns/op regression: %v", err)
	}
}

// Serial/Parallel pair benchmarks stay exempt from the ns gate whenever
// the baseline flags its pairs as uninformative.
func TestRunSkipsPairBenchmarksWhenBaselineSaysSo(t *testing.T) {
	uninformative := strings.Replace(multiJSON,
		`"parallel_pairs_informative": true`, `"parallel_pairs_informative": false`, 1)
	base := writeTemp(t, "base.json", uninformative)
	slowPair := strings.Replace(uninformative, `"ns_per_op": 4.0e8`, `"ns_per_op": 4.0e9`, 1)
	newRun := writeTemp(t, "new.json", slowPair)
	if err := run(base, newRun, defaultGates(), append(defaultPinned, "BenchmarkMonteCarloSerial")); err != nil {
		t.Fatalf("pair benchmark gated despite uninformative baseline: %v", err)
	}
}

// A pinned custom throughput metric dropping past the threshold fails;
// a drop within it passes.
func TestRunGatesCustomMetrics(t *testing.T) {
	base := writeTemp(t, "base.json", multiJSON)
	collapsed := strings.Replace(multiJSON, `"metrics": {"evals/sec": 50000}`, `"metrics": {"evals/sec": 20000}`, 1)
	newRun := writeTemp(t, "new.json", collapsed)
	err := run(base, newRun, defaultGates(), defaultPinned)
	if err == nil {
		t.Fatal("expected failure on 60% evals/sec collapse")
	}
	if !strings.Contains(err.Error(), "evals/sec") {
		t.Fatalf("failure does not name the metric: %v", err)
	}

	mild := strings.Replace(multiJSON, `"metrics": {"evals/sec": 50000}`, `"metrics": {"evals/sec": 42000}`, 1)
	newRun = writeTemp(t, "mild.json", mild)
	if err := run(base, newRun, defaultGates(), defaultPinned); err != nil {
		t.Fatalf("16%% metric drop should pass the 30%% gate: %v", err)
	}
}

func TestLoadNewDetectsJSON(t *testing.T) {
	path := writeTemp(t, "new.json", baseJSON)
	res, m, err := loadNew(path)
	if err != nil {
		t.Fatal(err)
	}
	if res["BenchmarkLayoutYield"].bytesPerOp != 1000000 {
		t.Fatalf("JSON new-run parse failed: %+v", res["BenchmarkLayoutYield"])
	}
	if m.ncpu != 1 {
		t.Fatalf("JSON new-run ncpu = %d, want 1 (from the file)", m.ncpu)
	}
}

func TestLoadNewTextUsesHostCPUCount(t *testing.T) {
	path := writeTemp(t, "new.txt",
		"BenchmarkLayoutYield-1 2 500000000 ns/op 100000 B/op 500 allocs/op\n")
	_, m, err := loadNew(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.ncpu != runtime.NumCPU() {
		t.Fatalf("text new-run ncpu = %d, want runtime.NumCPU() = %d", m.ncpu, runtime.NumCPU())
	}
}
