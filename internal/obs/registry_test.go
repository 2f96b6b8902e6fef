package obs

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseFamilies splits an exposition body into family→type plus raw
// sample lines, failing on duplicate TYPE declarations (the contiguity
// invariant: a family renders exactly one block).
func parseFamilies(t *testing.T, body []byte) (types map[string]string, samples []string) {
	t.Helper()
	types = map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("family %s declared twice: non-contiguous scrape", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples = append(samples, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, samples
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("demo_ops_total", "Operations.")
	c.Add(41)
	c.Inc()
	vec := r.NewCounterVec("demo_results_total", "Results by label.", "route", "code")
	vec.With("/v1/cost", "200").Add(3)
	vec.With(`we"ird\npath`+"\n", "400").Inc()
	g := r.NewGauge("demo_in_flight", "In-flight.")
	g.Add(5)
	g.Add(-2)
	gv := r.NewGaugeVec("demo_replica_up", "Per-replica health.", "replica")
	gv.With("127.0.0.1:8087").Set(1)
	gv.With("127.0.0.1:8088").Set(1)
	gv.With("127.0.0.1:8088").Set(0)
	fg := r.NewFloatGauge("demo_rate", "Pushed rate.")
	fg.Set(12.5)
	fg.Set(1234567.25)
	if got := fg.Value(); got != 1234567.25 {
		t.Fatalf("FloatGauge.Value() = %v", got)
	}
	h := r.NewHistogramOn("demo_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	hv := r.NewHistogramVec("demo_span_seconds", "Span durations.", []float64{0.01, 1}, "stage")
	hv.With("core.eval").Observe(0.002)
	hv.With("core.eval").Observe(2)
	hv.With("memo.fill").Observe(0.5)
	r.RegisterGoRuntime()

	var buf bytes.Buffer
	r.Render(&buf)
	body := buf.Bytes()
	types, samples := parseFamilies(t, body)

	for family, want := range map[string]string{
		"demo_ops_total":               "counter",
		"demo_results_total":           "counter",
		"demo_in_flight":               "gauge",
		"demo_replica_up":              "gauge",
		"demo_rate":                    "gauge",
		"demo_seconds":                 "histogram",
		"demo_span_seconds":            "histogram",
		"go_goroutines":                "gauge",
		"go_memstats_heap_alloc_bytes": "gauge",
		"go_gc_pause_seconds_total":    "counter",
	} {
		if got := types[family]; got != want {
			t.Errorf("family %s TYPE = %q, want %q", family, got, want)
		}
	}

	for _, want := range []string{
		"demo_ops_total 42",
		`demo_results_total{route="/v1/cost",code="200"} 3`,
		`demo_results_total{route="we\"ird\\npath\n",code="400"} 1`,
		"demo_in_flight 3",
		`demo_replica_up{replica="127.0.0.1:8087"} 1`,
		`demo_replica_up{replica="127.0.0.1:8088"} 0`,
		"demo_rate 1.23456725e+06",
		`demo_seconds_bucket{le="0.01"} 1`,
		`demo_seconds_bucket{le="0.1"} 2`,
		`demo_seconds_bucket{le="1"} 3`,
		`demo_seconds_bucket{le="+Inf"} 4`,
		"demo_seconds_count 4",
		`demo_span_seconds_bucket{stage="core.eval",le="+Inf"} 2`,
		`demo_span_seconds_count{stage="core.eval"} 2`,
		`demo_span_seconds_count{stage="memo.fill"} 1`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Histogram buckets must be cumulative within a labelled child.
	var prev uint64
	for _, line := range samples {
		if !strings.HasPrefix(line, `demo_span_seconds_bucket{stage="core.eval"`) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket %q = %d < previous %d: not cumulative", line, v, prev)
		}
		prev = v
	}

	// Go runtime families carry live values.
	for _, prefix := range []string{"go_goroutines ", "go_memstats_heap_alloc_bytes ", "go_gc_pause_seconds_total "} {
		found := false
		for _, line := range samples {
			if strings.HasPrefix(line, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no sample with prefix %q", prefix)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of dup_total did not panic")
		}
	}()
	r.NewGauge("dup_total", "")
}

// TestRegistryConcurrency hammers registration, recording and scraping
// from many goroutines; its value is running under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	vec := r.NewCounterVec("conc_total", "", "worker")
	h := r.NewHistogramOn("conc_seconds", "", DurationBuckets)
	hv := r.NewHistogramVec("conc_span_seconds", "", DurationBuckets, "stage")
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := strconv.Itoa(i)
			r.NewCounter("conc_reg_"+name+"_total", "")
			for j := 0; j < 500; j++ {
				vec.With(name).Inc()
				h.Observe(float64(j) / 1e4)
				hv.With("stage" + strconv.Itoa(j%3)).Observe(0.001)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := 0; j < 50; j++ {
				buf.Reset()
				r.Render(&buf)
			}
		}()
	}
	wg.Wait()
	var total uint64
	for i := 0; i < workers; i++ {
		total += vec.Value(strconv.Itoa(i))
	}
	if total != workers*500 {
		t.Fatalf("counter total = %d, want %d", total, workers*500)
	}
	if h.Count() != workers*500 {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*500)
	}
}

func TestHistogramSumAndCount(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	cum, sum, count := h.snapshot()
	if count != 3 || sum != 5 {
		t.Fatalf("sum/count = %v/%d, want 5/3", sum, count)
	}
	if cum[0] != 1 || cum[1] != 2 {
		t.Fatalf("cumulative buckets = %v, want [1 2]", cum)
	}
}
