// Command fleetbench is the repository's end-to-end benchmark. run.sh
// builds nanocostd and nanocostfront from the checkout and then runs this
// program, which boots fresh fleets of those binaries on loopback with
// ephemeral ports, drives one named workload generated from a seed,
// checks every response against an in-process reference, and prints one
// JSON result line as the last line of standard output.
//
// With -trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 it carries the per-layer metrics instead,
// taken from /metrics deltas, timed calls into the public entry points
// of each layer, and spans the benchmark records around those calls.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json the program reads: the
// workload table (each workload's pinned rate is written in its "why")
// and the metric names with their units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// rateRE finds the pinned arrival rate in a workload's "why".
var rateRE = regexp.MustCompile(`(\d+) req/s`)

// pinnedRate returns the open-loop rate BENCHMARK.json pins for the
// workload. The rate is never derived at run time: a computed rate would
// let a regression lower its own load.
func (s benchSpec) pinnedRate(workload string) (float64, error) {
	for _, w := range s.Workloads {
		if w.Name != workload {
			continue
		}
		m := rateRE.FindStringSubmatch(w.Why)
		if m == nil {
			return 0, fmt.Errorf("workload %q: no pinned \"<n> req/s\" rate in its why", workload)
		}
		return strconv.ParseFloat(m[1], 64)
	}
	return 0, fmt.Errorf("unknown workload %q", workload)
}

// bench carries one run's settings.
type bench struct {
	spec     benchSpec
	workload string
	seed     int64
	seconds  float64
	deadline time.Time // when the run should end
	trace    bool
	rate     float64
	binDir   string
	runDir   string
	traceDir string
	spans    *recorder
}

// outcome is what a workload run measured.
type outcome struct {
	attempted  int64
	failed     int64
	mismatches int64
	metrics    map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		binDir   = flag.String("bin", "", "directory holding the nanocostd and nanocostfront binaries")
		workDir  = flag.String("work", "", "scratch directory for logs, job checkpoints and traces")
		workload = flag.String("workload", "", "serve-light or jobs")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 50, "seconds a run takes, its set-up included")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	)
	flag.Parse()
	if err := run(*specPath, *binDir, *workDir, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func run(specPath, binDir, workDir, workload string, seed int64, seconds int, trace bool) error {
	if binDir == "" || workDir == "" {
		return fmt.Errorf("-bin and -work are required")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	rate, err := spec.pinnedRate(workload)
	if err != nil {
		return err
	}
	b := &bench{
		spec:     spec,
		workload: workload, seed: seed, seconds: float64(seconds), trace: trace, rate: rate,
		deadline: time.Now().Add(time.Duration(seconds) * time.Second),
		binDir:   binDir,
		runDir:   filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
		traceDir: filepath.Join(workDir, "traces"),
		spans:    newRecorder(trace),
	}
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.runDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var out outcome
	switch workload {
	case "serve-light":
		out, err = runServe(ctx, b)
	case "jobs":
		out, err = runJobs(ctx, b)
	default:
		err = fmt.Errorf("workload %q has no driver", workload)
	}
	if err != nil {
		return err
	}
	if trace {
		path, err := b.spans.write(b.traceDir, fmt.Sprintf("%s-seed%d", workload, seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fleetbench: spans written to %s\n", path)
	}

	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	res := result{
		Correct:   out.mismatches == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(out.metrics) != len(want) {
		var extra []string
		for name := range out.metrics {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", extra)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.mismatches > 0 {
		return fmt.Errorf("%d responses differed from the reference", out.mismatches)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no requests attempted")
	}
	return nil
}
