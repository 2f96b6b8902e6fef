// Package loadgen is the in-repo load generator behind cmd/loadgen and
// the SLO gate in scripts/check.sh. It drives a pinned, deterministic
// endpoint set against a nanocostd (or nanocostfront) base URL in
// either of the two canonical modes:
//
//   - closed loop: a fixed number of workers, each issuing its next
//     request the moment the previous one finishes. Throughput floats,
//     concurrency is pinned — the classic saturation probe.
//   - open loop: a fixed arrival rate, arrivals independent of
//     completions. Latency under a pinned rate is the honest SLO
//     measurement — a closed loop silently slows its own arrival rate
//     when the server degrades (coordinated omission).
//
// Latency percentiles are exact (sorted samples, no sketch), and every
// endpoint's response bodies are fingerprinted with sha256 so a routing
// layer can be checked for byte-identical responses across replicas and
// failovers, not just for 200s.
package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Endpoint is one request shape in the driven set. Bodies must make the
// request a pure function — same bytes back on every replica — or hash
// checking will (correctly) flag the endpoint.
type Endpoint struct {
	Name   string // short label for reports ("cost", "figure1", ...)
	Method string
	Path   string // path plus query
	Body   string // empty for GET
}

// DefaultEndpoints is the pinned set the SLO gate drives: the three
// model-evaluation POSTs, a batch, and two memoized figures. All are
// deterministic functions of the request, so responses are byte-stable
// across replicas, restarts and retries.
func DefaultEndpoints() []Endpoint {
	const scenario = `{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":5000}`
	return []Endpoint{
		{Name: "cost", Method: "POST", Path: "/v1/cost", Body: scenario},
		{Name: "designcost", Method: "POST", Path: "/v1/designcost",
			Body: `{"transistors":10e6,"sd":300}`},
		{Name: "generalized", Method: "POST", Path: "/v1/generalized",
			Body: `{"scenario":{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":5000,"utilization":0.85}}`},
		{Name: "batch", Method: "POST", Path: "/v1/batch",
			Body: `{"items":[{"kind":"cost","body":` + scenario + `},{"kind":"designcost","body":{"transistors":10e6,"sd":300}}]}`},
		{Name: "figure1", Method: "GET", Path: "/v1/figures/1"},
		{Name: "figure3", Method: "GET", Path: "/v1/figures/3"},
	}
}

// Config parameterizes one run. RPS > 0 selects the open loop;
// otherwise Concurrency closed-loop workers run back to back.
type Config struct {
	BaseURL     string // e.g. "http://127.0.0.1:8087"
	Endpoints   []Endpoint
	Duration    time.Duration
	Concurrency int     // closed loop (default 4)
	RPS         float64 // open loop when > 0
	Timeout     time.Duration
	Client      *http.Client // override for tests; nil builds one
}

func (c Config) withDefaults() Config {
	if len(c.Endpoints) == 0 {
		c.Endpoints = DefaultEndpoints()
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: c.Timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: max(c.Concurrency, 64),
			},
		}
	}
	return c
}

// EndpointResult is the per-endpoint slice of a run.
type EndpointResult struct {
	Name           string
	Requests       int
	Non2xx         int
	TransportErrs  int
	BodySHA256     string // hash of the first 2xx body
	HashMismatches int    // later 2xx bodies that disagreed with the first
}

// Result is one finished run.
type Result struct {
	Mode          string // "closed" or "open"
	Requests      int
	Non2xx        int
	TransportErrs int
	Elapsed       time.Duration
	AchievedRPS   float64
	RequestedRPS  float64 // open loop: the pinned arrival rate asked for
	ArrivalRPS    float64 // open loop: arrivals actually launched per second of Duration
	P50, P90, P99 time.Duration
	Max           time.Duration
	Endpoints     []EndpointResult
}

// recorder accumulates samples across workers.
type recorder struct {
	mu        sync.Mutex
	latencies []time.Duration
	byName    map[string]*EndpointResult
}

func (rec *recorder) record(name string, elapsed time.Duration, status int, body []byte, transportErr bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	er := rec.byName[name]
	er.Requests++
	switch {
	case transportErr:
		er.TransportErrs++
	case status < 200 || status > 299:
		er.Non2xx++
	default:
		sum := sha256.Sum256(body)
		h := hex.EncodeToString(sum[:])
		if er.BodySHA256 == "" {
			er.BodySHA256 = h
		} else if er.BodySHA256 != h {
			er.HashMismatches++
		}
	}
	if !transportErr {
		rec.latencies = append(rec.latencies, elapsed)
	}
}

// Percentile returns the exact q-quantile (0 < q <= 1) of sorted
// ascending samples: the smallest sample with at least q of the mass at
// or below it. Empty input yields 0.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// shoot sends one request for e to base and records it. In the open loop
// due is the arrival's scheduled time and latency runs from it, so a
// generator that falls behind its schedule (a stalled loop, a goroutine
// that starts late) counts the delay as latency instead of hiding it. A
// zero due, the closed loop's, times from the send. The request context
// is the caller's, not the run's deadline: an arrival admitted before the
// deadline gets its full timeout, so the tail of the run is measured, not
// truncated.
func shoot(ctx context.Context, client *http.Client, base string, rec *recorder, e Endpoint, due time.Time) {
	var rd io.Reader
	if e.Body != "" {
		rd = strings.NewReader(e.Body)
	}
	req, err := http.NewRequestWithContext(ctx, e.Method, base+e.Path, rd)
	if err != nil {
		rec.record(e.Name, 0, 0, nil, true)
		return
	}
	if e.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	resp, err := client.Do(req)
	if err != nil {
		rec.record(e.Name, time.Since(start), 0, nil, true)
		return
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if rerr != nil {
		rec.record(e.Name, elapsed, 0, nil, true)
		return
	}
	rec.record(e.Name, elapsed, resp.StatusCode, body, false)
}

// Run drives the configured load until Duration elapses (or ctx is
// cancelled, whichever first) and returns the aggregated result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	base := strings.TrimSuffix(cfg.BaseURL, "/")

	rec := &recorder{byName: map[string]*EndpointResult{}}
	for _, e := range cfg.Endpoints {
		if _, dup := rec.byName[e.Name]; dup {
			return nil, fmt.Errorf("loadgen: duplicate endpoint name %q", e.Name)
		}
		rec.byName[e.Name] = &EndpointResult{Name: e.Name}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	start := time.Now()
	mode := "closed"
	arrivals := 0
	var wg sync.WaitGroup
	if cfg.RPS > 0 {
		mode = "open"
		interval := time.Duration(float64(time.Second) / cfg.RPS)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		// Arrival n fires at start+n·interval, an absolute schedule. A
		// ticker here coalesces: its channel buffers exactly one tick, so
		// whenever this loop stalls past one interval (goroutine storms on
		// a small box, a GC pause) every tick that should have queued in
		// the stall is dropped and the achieved rate silently undershoots
		// the pinned one — coordinated omission smuggled back into the
		// open loop. Falling behind an absolute schedule instead fires
		// immediately, bursting until the arrival count catches up.
		timer := time.NewTimer(time.Hour)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
	openLoop:
		for {
			next := start.Add(time.Duration(float64(arrivals) * float64(interval)))
			if d := time.Until(next); d > 0 {
				timer.Reset(d)
				select {
				case <-runCtx.Done():
					break openLoop
				case <-timer.C:
				}
			} else if runCtx.Err() != nil {
				break openLoop
			}
			e := cfg.Endpoints[arrivals%len(cfg.Endpoints)]
			arrivals++
			wg.Add(1)
			go func() { defer wg.Done(); shoot(ctx, cfg.Client, base, rec, e, next) }()
		}
	} else {
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(offset int) {
				defer wg.Done()
				for i := offset; runCtx.Err() == nil; i++ {
					shoot(ctx, cfg.Client, base, rec, cfg.Endpoints[i%len(cfg.Endpoints)], time.Time{})
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rec.mu.Lock()
	defer rec.mu.Unlock()
	sort.Slice(rec.latencies, func(a, b int) bool { return rec.latencies[a] < rec.latencies[b] })
	res := &Result{Mode: mode, Elapsed: elapsed}
	for _, e := range cfg.Endpoints {
		er := rec.byName[e.Name]
		res.Endpoints = append(res.Endpoints, *er)
		res.Requests += er.Requests
		res.Non2xx += er.Non2xx
		res.TransportErrs += er.TransportErrs
	}
	if elapsed > 0 {
		res.AchievedRPS = float64(res.Requests) / elapsed.Seconds()
	}
	if mode == "open" {
		res.RequestedRPS = cfg.RPS
		// Arrivals are judged against the configured window, not Elapsed:
		// Elapsed includes the post-deadline drain of in-flight requests,
		// which would flatter a generator that fell behind.
		res.ArrivalRPS = float64(arrivals) / cfg.Duration.Seconds()
	}
	res.P50 = Percentile(rec.latencies, 0.50)
	res.P90 = Percentile(rec.latencies, 0.90)
	res.P99 = Percentile(rec.latencies, 0.99)
	if n := len(rec.latencies); n > 0 {
		res.Max = rec.latencies[n-1]
	}
	return res, nil
}

// Report renders the run for humans plus one machine-greppable
// "hash <endpoint> <sha256>" line per endpoint, which the SLO script
// compares across router topologies for byte identity.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s requests=%d non2xx=%d transport_errs=%d elapsed=%s rps=%.1f",
		r.Mode, r.Requests, r.Non2xx, r.TransportErrs,
		r.Elapsed.Round(time.Millisecond), r.AchievedRPS)
	if r.Mode == "open" {
		fmt.Fprintf(&b, " requested_rps=%.1f arrival_rps=%.1f", r.RequestedRPS, r.ArrivalRPS)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "latency p50=%s p90=%s p99=%s max=%s\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	for _, e := range r.Endpoints {
		fmt.Fprintf(&b, "endpoint %-12s requests=%-6d non2xx=%-4d mismatches=%d\n",
			e.Name, e.Requests, e.Non2xx, e.HashMismatches)
	}
	for _, e := range r.Endpoints {
		if e.BodySHA256 != "" {
			fmt.Fprintf(&b, "hash %s %s\n", e.Name, e.BodySHA256)
		}
	}
	return b.String()
}

// CheckSLO returns the list of violated constraints, empty when the run
// met them all. maxP99 <= 0 and maxNon2xx < 0 disable their checks;
// hash mismatches and transport errors always violate.
func (r *Result) CheckSLO(maxP99 time.Duration, maxNon2xx int) []string {
	var v []string
	if maxP99 > 0 && r.P99 > maxP99 {
		v = append(v, fmt.Sprintf("p99 %s exceeds budget %s", r.P99, maxP99))
	}
	if maxNon2xx >= 0 && r.Non2xx > maxNon2xx {
		v = append(v, fmt.Sprintf("%d non-2xx responses exceed budget %d", r.Non2xx, maxNon2xx))
	}
	if r.TransportErrs > 0 {
		v = append(v, fmt.Sprintf("%d transport errors", r.TransportErrs))
	}
	for _, e := range r.Endpoints {
		if e.HashMismatches > 0 {
			v = append(v, fmt.Sprintf("endpoint %s: %d response-hash mismatches", e.Name, e.HashMismatches))
		}
	}
	// An open loop that cannot sustain its own pinned rate measures a
	// gentler load than requested; the whole run is then untrustworthy,
	// not just slow.
	if r.Mode == "open" && r.RequestedRPS > 0 && r.ArrivalRPS < 0.95*r.RequestedRPS {
		v = append(v, fmt.Sprintf("arrival rate %.1f/s undershoots requested %.1f/s by more than 5%%",
			r.ArrivalRPS, r.RequestedRPS))
	}
	if r.Requests == 0 {
		v = append(v, "no requests completed")
	}
	return v
}
