// Command benchcmp compares a benchmark run against a recorded baseline
// (the JSON written by scripts/bench_baseline.sh) and fails when a pinned
// hot-path benchmark regresses past the threshold. It is the repo's
// no-dependency stand-in for benchstat's delta gate, wired into
// `make bench-compare BASE=BENCH_PR2.json`.
//
// Three quantities are gated, each with its own tolerance:
//
//   - bytes/op — always gated: allocation behaviour is deterministic, so
//     it compares meaningfully across any pair of hosts;
//   - ns/op — gated only when BOTH the baseline and the new run come from
//     multi-core hosts. Wall-clock on a single-core host measures the
//     scheduler as much as the code, and the parallel engine degenerates
//     to serial-plus-overhead there; benchmarks whose names mark them as
//     Serial/Parallel comparison pairs are additionally skipped whenever
//     the baseline flags its pairs as uninformative;
//   - custom throughput metrics (b.ReportMetric units such as evals/sec
//     and sims/sec) — higher is better, gated on relative decrease, and
//     like ns/op only trusted between multi-core hosts.
//
// The new run is read either from a second baseline JSON or from raw
// `go test -bench -benchmem` text (file or stdin), so both of these work:
//
//	go test -bench=. -benchmem . | benchcmp -base BENCH_PR6.json
//	benchcmp -base BENCH_PR2.json -new BENCH_PR6.json
//
// Only benchmarks present in BOTH the pinned set and both runs are
// gated; everything else shared between the runs is reported
// informationally. A regression must exceed the relative threshold AND
// the absolute slack to fail, so noise on near-zero kernels cannot trip
// the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark measurement. bytesPerOp is absent (-1) for
// benchmarks run without -benchmem; metrics holds any custom
// b.ReportMetric values keyed by unit (e.g. "evals/sec").
type result struct {
	name       string
	nsPerOp    float64
	bytesPerOp float64
	metrics    map[string]float64
}

// meta describes the host a run was recorded on, as far as the input
// reveals it: baseline JSONs carry it explicitly, raw bench text is
// assumed to come from the current machine.
type meta struct {
	ncpu             int
	pairsInformative bool
	note             string
}

// baselineFile mirrors the JSON layout of scripts/bench_baseline.sh.
type baselineFile struct {
	Ncpu                     int    `json:"ncpu"`
	ParallelPairsInformative *bool  `json:"parallel_pairs_informative"`
	ParallelPairsNote        string `json:"parallel_pairs_note"`
	Benchmarks               []struct {
		Name        string             `json:"name"`
		NsPerOp     float64            `json:"ns_per_op"`
		BytesPerOp  *float64           `json:"bytes_per_op"`
		AllocsPerOp *float64           `json:"allocs_per_op"`
		Metrics     map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

// defaultPinned is the hot-path set gated on bytes/op, and — between
// multi-core hosts — on ns/op and custom throughput metrics. Benchmarks
// absent from either run are skipped (older baselines predate some of
// them), so extending this list is always safe.
var defaultPinned = []string{
	"BenchmarkLayoutYield",
	"BenchmarkLayoutDensity",
	"BenchmarkRegularity",
	"BenchmarkRegularityScan",
	"BenchmarkCriticalArea",
	"BenchmarkCritAreaAverage",
	"BenchmarkWaferMap",
	"BenchmarkEvalBatch1024",
	"BenchmarkServeBatch1024",
	"BenchmarkWaferMapSims",
	"BenchmarkLayoutDefectJob",
	"BenchmarkJobKernels/defect",
	"BenchmarkJobKernels/layoutdefect",
	"BenchmarkJobKernels/montecarlo",
	"BenchmarkJobKernels/wafermap",
}

// gates bundles the per-quantity thresholds. A regression fails only
// when it exceeds both the relative threshold and the absolute slack of
// its quantity.
type gates struct {
	bytesThreshold  float64
	bytesSlack      float64
	nsThreshold     float64
	nsSlack         float64
	metricThreshold float64
}

func main() {
	var (
		base            = flag.String("base", "", "baseline JSON written by scripts/bench_baseline.sh (required)")
		newRun          = flag.String("new", "-", "new run: baseline JSON, go-test bench text, or - for stdin")
		threshold       = flag.Float64("threshold", 0.20, "relative bytes/op regression that fails the gate")
		slack           = flag.Float64("slack", 4096, "absolute bytes/op increase a regression must also exceed")
		nsThreshold     = flag.Float64("ns-threshold", 0.30, "relative ns/op regression that fails the gate (multi-core hosts only)")
		nsSlack         = flag.Float64("ns-slack", 500, "absolute ns/op increase a regression must also exceed")
		metricThreshold = flag.Float64("metric-threshold", 0.30, "relative drop in a custom throughput metric that fails the gate")
		pin             = flag.String("pin", "", "comma-separated pinned benchmark list (default: built-in hot-path set)")
	)
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -base is required")
		os.Exit(2)
	}
	pinned := defaultPinned
	if *pin != "" {
		pinned = strings.Split(*pin, ",")
	}
	g := gates{
		bytesThreshold:  *threshold,
		bytesSlack:      *slack,
		nsThreshold:     *nsThreshold,
		nsSlack:         *nsSlack,
		metricThreshold: *metricThreshold,
	}
	if err := run(*base, *newRun, g, pinned); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(1)
	}
}

// pairBench reports whether a benchmark is one half of a Serial/Parallel
// comparison pair — the benchmarks whose ns/op only means something when
// the recording host had cores to parallelize over.
func pairBench(name string) bool {
	return strings.Contains(name, "Serial") || strings.Contains(name, "Parallel")
}

func run(basePath, newPath string, g gates, pinned []string) error {
	baseRes, baseMeta, err := loadBaseline(basePath)
	if err != nil {
		return err
	}
	newRes, newMeta, err := loadNew(newPath)
	if err != nil {
		return err
	}
	if baseMeta.note != "" {
		fmt.Printf("note: %s: %s\n", basePath, baseMeta.note)
	}

	pinnedSet := make(map[string]bool, len(pinned))
	for _, p := range pinned {
		pinnedSet[strings.TrimSpace(p)] = true
	}

	names := make([]string, 0, len(newRes))
	for name := range newRes {
		if _, ok := baseRes[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no benchmarks in common between %s and %s", basePath, newPath)
	}

	var failures []string

	// bytes/op: deterministic, gated unconditionally.
	fmt.Printf("%-36s %14s %14s %9s  %s\n", "benchmark (bytes/op)", "base", "new", "delta", "gate")
	for _, name := range names {
		b, n := baseRes[name], newRes[name]
		if b.bytesPerOp < 0 || n.bytesPerOp < 0 {
			continue // no -benchmem data on one side
		}
		delta := n.bytesPerOp - b.bytesPerOp
		rel := 0.0
		if b.bytesPerOp > 0 {
			rel = delta / b.bytesPerOp
		}
		gate := ""
		if pinnedSet[name] {
			gate = "pinned"
			if rel > g.bytesThreshold && delta > g.bytesSlack {
				gate = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %.0f -> %.0f B/op (%+.1f%%)", name, b.bytesPerOp, n.bytesPerOp, 100*rel))
			}
		}
		fmt.Printf("%-36s %14.0f %14.0f %+8.1f%%  %s\n", name, b.bytesPerOp, n.bytesPerOp, 100*rel, gate)
	}

	// ns/op: only meaningful between multi-core hosts.
	nsGate := baseMeta.ncpu > 1 && newMeta.ncpu > 1
	fmt.Printf("\n%-36s %14s %14s %9s  %s\n", "benchmark (ns/op)", "base", "new", "delta", "gate")
	for _, name := range names {
		b, n := baseRes[name], newRes[name]
		if b.nsPerOp <= 0 || n.nsPerOp <= 0 {
			continue
		}
		delta := n.nsPerOp - b.nsPerOp
		rel := delta / b.nsPerOp
		gate := ""
		switch {
		case !nsGate:
			gate = "skip (single-core run)"
		case pairBench(name) && !baseMeta.pairsInformative:
			gate = "skip (pairs uninformative in baseline)"
		case pinnedSet[name]:
			gate = "pinned"
			if rel > g.nsThreshold && delta > g.nsSlack {
				gate = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", name, b.nsPerOp, n.nsPerOp, 100*rel))
			}
		}
		fmt.Printf("%-36s %14.0f %14.0f %+8.1f%%  %s\n", name, b.nsPerOp, n.nsPerOp, 100*rel, gate)
	}
	if !nsGate {
		fmt.Printf("ns/op gate skipped: baseline ncpu=%d, new run ncpu=%d (need >1 on both)\n",
			baseMeta.ncpu, newMeta.ncpu)
	}

	// Custom throughput metrics (evals/sec, sims/sec, ...): higher is
	// better; same multi-core caveat as ns/op.
	printedHeader := false
	for _, name := range names {
		b, n := baseRes[name], newRes[name]
		units := make([]string, 0, len(b.metrics))
		for unit := range b.metrics {
			if _, ok := n.metrics[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			if !printedHeader {
				fmt.Printf("\n%-36s %-10s %12s %12s %9s  %s\n", "benchmark (custom metric)", "unit", "base", "new", "delta", "gate")
				printedHeader = true
			}
			bv, nv := b.metrics[unit], n.metrics[unit]
			if bv <= 0 {
				continue
			}
			rel := (nv - bv) / bv
			gate := ""
			switch {
			case !nsGate:
				gate = "skip (single-core run)"
			case pinnedSet[name]:
				gate = "pinned"
				if -rel > g.metricThreshold {
					gate = "FAIL"
					failures = append(failures,
						fmt.Sprintf("%s: %.0f -> %.0f %s (%+.1f%%)", name, bv, nv, unit, 100*rel))
				}
			}
			fmt.Printf("%-36s %-10s %12.0f %12.0f %+8.1f%%  %s\n", name, unit, bv, nv, 100*rel, gate)
		}
	}

	if len(failures) > 0 {
		return fmt.Errorf("%d pinned benchmark(s) regressed past the gate:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Printf("ok: no pinned regression (bytes/op >%.0f%%+%.0fB", 100*g.bytesThreshold, g.bytesSlack)
	if nsGate {
		fmt.Printf("; ns/op >%.0f%%+%.0fns; metrics <-%.0f%%", 100*g.nsThreshold, g.nsSlack, 100*g.metricThreshold)
	}
	fmt.Println(")")
	return nil
}

// decodeBaseline converts a parsed baselineFile into the result map and
// host metadata.
func decodeBaseline(bf baselineFile) (map[string]result, meta) {
	res := make(map[string]result, len(bf.Benchmarks))
	for _, b := range bf.Benchmarks {
		r := result{name: canonical(b.Name), nsPerOp: b.NsPerOp, bytesPerOp: -1}
		if b.BytesPerOp != nil {
			r.bytesPerOp = *b.BytesPerOp
		}
		if len(b.Metrics) > 0 {
			r.metrics = b.Metrics
		}
		res[r.name] = r
	}
	m := meta{ncpu: bf.Ncpu, pairsInformative: true}
	if bf.ParallelPairsInformative != nil && !*bf.ParallelPairsInformative {
		m.pairsInformative = false
		m.note = bf.ParallelPairsNote
	}
	return res, m
}

// loadBaseline reads a bench_baseline.sh JSON file. The returned meta
// carries the recording host's CPU count and whether its Serial/Parallel
// pairs mean anything.
func loadBaseline(path string) (map[string]result, meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, meta{}, err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, meta{}, fmt.Errorf("%s: %w", path, err)
	}
	res, m := decodeBaseline(bf)
	return res, m, nil
}

// loadNew reads the new run from a baseline JSON file, raw go-test bench
// text, or stdin ("-"). JSON is detected by content, not extension; raw
// text is assumed to have been produced on the current machine, so its
// CPU count is runtime.NumCPU().
func loadNew(path string) (map[string]result, meta, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, meta{}, err
	}
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		var bf baselineFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, meta{}, fmt.Errorf("%s: %w", path, err)
		}
		res, m := decodeBaseline(bf)
		return res, m, nil
	}
	res, err := parseBenchText(data)
	if err != nil {
		return nil, meta{}, err
	}
	return res, meta{ncpu: runtime.NumCPU(), pairsInformative: runtime.NumCPU() > 1}, nil
}

// parseBenchText extracts results from `go test -bench -benchmem` output
// lines of the form:
//
//	BenchmarkName-8   123   456789 ns/op   98765 evals/sec   1024 B/op   3 allocs/op
//
// Any value/unit pair whose unit is not one of the standard three is
// collected as a custom b.ReportMetric metric.
func parseBenchText(data []byte) (map[string]result, error) {
	res := make(map[string]result)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		r := result{name: canonical(fields[0]), bytesPerOp: -1}
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.nsPerOp = v
			case "B/op":
				r.bytesPerOp = v
			case "allocs/op":
				// tracked via bytes/op; ignored here
			default:
				if strings.ContainsRune(unit, '/') {
					if r.metrics == nil {
						r.metrics = make(map[string]float64)
					}
					r.metrics[unit] = v
				}
			}
		}
		if r.nsPerOp > 0 {
			res[r.name] = r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in new-run input")
	}
	return res, nil
}

// canonical strips the -GOMAXPROCS suffix go test appends to benchmark
// names, so runs recorded on machines with different core counts compare.
func canonical(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
