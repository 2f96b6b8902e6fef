package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPercentileExact pins the exact-quantile definition on a small
// known sample set.
func TestPercentileExact(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms sorted
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
		{0.01, 1 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := Percentile(samples, tc.q); got != tc.want {
			t.Errorf("Percentile(1..100ms, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.99); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile(samples[:1], 0.99); got != time.Millisecond {
		t.Errorf("Percentile(single sample) = %v", got)
	}
}

// stableServer answers every endpoint deterministically.
func stableServer() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "stable response for %s %s", r.Method, r.URL.Path)
	}))
}

var testEndpoints = []Endpoint{
	{Name: "a", Method: "GET", Path: "/a"},
	{Name: "b", Method: "POST", Path: "/b", Body: `{"x":1}`},
}

// TestClosedLoopRun drives a short closed loop and checks the
// aggregate bookkeeping: all 2xx, consistent hashes, sane percentiles.
func TestClosedLoopRun(t *testing.T) {
	ts := stableServer()
	defer ts.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Endpoints:   testEndpoints,
		Duration:    200 * time.Millisecond,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" || res.Requests == 0 {
		t.Fatalf("result = %+v, want closed-loop traffic", res)
	}
	if res.Non2xx != 0 || res.TransportErrs != 0 {
		t.Fatalf("clean server produced non2xx=%d errs=%d", res.Non2xx, res.TransportErrs)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	for _, e := range res.Endpoints {
		if e.Requests == 0 || e.BodySHA256 == "" || e.HashMismatches != 0 {
			t.Fatalf("endpoint %+v, want traffic with one stable hash", e)
		}
	}
	if v := res.CheckSLO(time.Minute, 0); len(v) != 0 {
		t.Fatalf("clean run violates SLO: %v", v)
	}
}

// TestOpenLoopPacesArrivals: the open loop issues roughly rate×duration
// requests regardless of completion times.
func TestOpenLoopPacesArrivals(t *testing.T) {
	ts := stableServer()
	defer ts.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:   ts.URL,
		Endpoints: testEndpoints,
		Duration:  500 * time.Millisecond,
		RPS:       200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 200 rps × 0.5 s = 100 arrivals; allow generous scheduler slack.
	if res.Mode != "open" || res.Requests < 50 || res.Requests > 150 {
		t.Fatalf("open loop issued %d requests at 200rps/500ms, want ≈100", res.Requests)
	}
}

// TestHashMismatchDetected: a server whose responses vary must be
// flagged — this is the byte-identity check the router SLO leans on.
func TestHashMismatchDetected(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "response %d", n.Add(1))
	}))
	defer ts.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Endpoints:   []Endpoint{{Name: "flap", Method: "GET", Path: "/"}},
		Duration:    100 * time.Millisecond,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Endpoints[0].HashMismatches == 0 {
		t.Fatal("varying responses produced no hash mismatches")
	}
	if v := res.CheckSLO(0, -1); len(v) == 0 {
		t.Fatal("hash mismatches did not violate the SLO")
	}
}

// TestNon2xxCountedAndBudgeted: error responses count per endpoint and
// trip the budget check.
func TestNon2xxCountedAndBudgeted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Endpoints:   []Endpoint{{Name: "err", Method: "GET", Path: "/"}},
		Duration:    50 * time.Millisecond,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Non2xx == 0 || res.Non2xx != res.Endpoints[0].Non2xx {
		t.Fatalf("non-2xx accounting: %+v", res)
	}
	if v := res.CheckSLO(0, 0); len(v) == 0 {
		t.Fatal("non-2xx over budget did not violate the SLO")
	}
	if v := res.CheckSLO(0, -1); len(v) != 0 {
		t.Fatalf("disabled non-2xx budget still violated: %v", v)
	}
}

// TestReportCarriesHashLines: the machine-readable hash lines the SLO
// script greps must be present and stable.
func TestReportCarriesHashLines(t *testing.T) {
	ts := stableServer()
	defer ts.Close()
	run := func() *Result {
		res, err := Run(context.Background(), Config{
			BaseURL:     ts.URL,
			Endpoints:   testEndpoints,
			Duration:    50 * time.Millisecond,
			Concurrency: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for i := range r1.Endpoints {
		if r1.Endpoints[i].BodySHA256 != r2.Endpoints[i].BodySHA256 {
			t.Fatalf("endpoint %s hash differs across runs", r1.Endpoints[i].Name)
		}
		want := fmt.Sprintf("hash %s %s\n", r1.Endpoints[i].Name, r1.Endpoints[i].BodySHA256)
		if report := r1.Report(); !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// stubTransport answers every request in-process with a canned 200, so
// the pacing test below measures the arrival loop's scheduling — not
// this box's capacity to serve real HTTP at the requested rate.
type stubTransport struct{}

func (stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader("ok")),
		Header:     http.Header{},
	}, nil
}

// TestOpenLoopHoldsRateUnderLoad is the pacing regression test: at
// 2000 rps on a small box the per-request goroutine launches stall the
// arrival loop past single intervals, and a ticker-driven loop (whose
// channel buffers exactly one tick) silently drops every tick the stall
// swallowed — this box measured ~50% of the requested arrivals even
// against the in-process stub. The absolute schedule must burst through
// stalls and deliver the pinned rate.
func TestOpenLoopHoldsRateUnderLoad(t *testing.T) {
	res, err := Run(context.Background(), Config{
		BaseURL:   "http://stub.invalid",
		Endpoints: []Endpoint{{Name: "ok", Method: "GET", Path: "/ok"}},
		Duration:  700 * time.Millisecond,
		RPS:       2000,
		Client:    &http.Client{Transport: stubTransport{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = 1400 // 2000 rps × 0.7 s
	if res.Requests < want*85/100 {
		t.Fatalf("open loop launched %d arrivals at 2000rps/700ms, want ≥ %d (ticker coalescing?)", res.Requests, want*85/100)
	}
	if res.Requests > want+want/10 {
		t.Fatalf("open loop launched %d arrivals, more than the schedule admits (~%d)", res.Requests, want)
	}
	if res.RequestedRPS != 2000 {
		t.Fatalf("RequestedRPS = %v, want 2000", res.RequestedRPS)
	}
	if res.ArrivalRPS < 0.95*res.RequestedRPS {
		t.Fatalf("ArrivalRPS = %.1f, want ≥ 95%% of %.1f", res.ArrivalRPS, res.RequestedRPS)
	}
	if v := res.CheckSLO(0, -1); len(v) != 0 {
		t.Fatalf("unexpected SLO violations: %v", v)
	}
	if !strings.Contains(res.Report(), "arrival_rps=") {
		t.Fatalf("open-loop report misses arrival_rps: %s", res.Report())
	}
}

// TestOpenLoopTimesFromDueTime: an open-loop arrival that starts 50 ms
// after its scheduled time records those 50 ms as latency, so a stalled
// generator shows up in the percentiles instead of hiding. A closed-loop
// request (zero due time) still times from its send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	client := &http.Client{Transport: stubTransport{}}
	e := Endpoint{Name: "ok", Method: "GET", Path: "/ok"}
	const late = 50 * time.Millisecond
	for _, tc := range []struct {
		name     string
		due      time.Time
		min, max time.Duration
	}{
		{"open loop, due 50ms ago", time.Now().Add(-late), late, time.Hour},
		{"closed loop", time.Time{}, 0, late},
	} {
		rec := &recorder{byName: map[string]*EndpointResult{"ok": {Name: "ok"}}}
		shoot(context.Background(), client, "http://stub.invalid", rec, e, tc.due)
		if len(rec.latencies) != 1 {
			t.Fatalf("%s: %d samples, want 1", tc.name, len(rec.latencies))
		}
		if got := rec.latencies[0]; got < tc.min || got >= tc.max {
			t.Fatalf("%s: latency %v, want in [%v, %v)", tc.name, got, tc.min, tc.max)
		}
	}
}

// TestCheckSLOFlagsArrivalUndershoot: an open-loop run that failed to
// sustain its own requested rate is a violation in itself, even with
// perfect latencies.
func TestCheckSLOFlagsArrivalUndershoot(t *testing.T) {
	r := &Result{Mode: "open", Requests: 700, RequestedRPS: 2000, ArrivalRPS: 1000}
	v := r.CheckSLO(0, -1)
	found := false
	for _, s := range v {
		if strings.Contains(s, "undershoots") {
			found = true
		}
	}
	if !found {
		t.Fatalf("50%% arrival undershoot not flagged: %v", v)
	}
	ok := &Result{Mode: "open", Requests: 1400, RequestedRPS: 2000, ArrivalRPS: 1960}
	for _, s := range ok.CheckSLO(0, -1) {
		if strings.Contains(s, "undershoots") {
			t.Fatalf("96%% arrival rate wrongly flagged: %v", ok.CheckSLO(0, -1))
		}
	}
	closed := &Result{Mode: "closed", Requests: 100}
	for _, s := range closed.CheckSLO(0, -1) {
		if strings.Contains(s, "undershoots") {
			t.Fatalf("closed loop wrongly checked for arrival rate: %v", s)
		}
	}
}
