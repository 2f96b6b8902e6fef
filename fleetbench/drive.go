package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues arrival i on client c and reports whether it succeeded
// (2xx and the expected bytes). traced asks it to record spans.
type sendFunc func(c *http.Client, i int, traced bool) bool

// openResult is one open-loop phase: per-arrival latency in ms, measured
// from the arrival's due time (+Inf for a failure), and how late the
// generator's timer fired for arrivals it was free to send on time.
type openResult struct {
	latMS    []float64
	traced   []bool
	genLate  []float64
	duration time.Duration
}

// openLoop sends n arrivals on a fixed schedule — arrival i is due i/rate
// after the start — from one sender per client, until ctx ends. A sender
// takes the next arrival when it is free; if that arrival is already due,
// it goes out at once and the wait counts in its latency, so a stall
// delays every request scheduled behind it, as it would real users.
// tracedWindow > 0 alternates windows of that length with tracing on and
// off, for the tracing-overhead check.
func openLoop(ctx context.Context, rate float64, n int, clients []*http.Client, tracedWindow time.Duration, send sendFunc) openResult {
	interval := float64(time.Second) / rate
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = math.NaN() // not sent: the loop was stopped first
	}
	traced := make([]bool, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	lates := make([][]float64, len(clients))
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				offset := time.Duration(float64(i) * interval)
				due := start.Add(offset)
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-ctx.Done():
						return
					case <-timer.C:
					}
					lates[w] = append(lates[w], msSince(due))
				} else if ctx.Err() != nil {
					return
				}
				traced[i] = tracedWindow > 0 && (offset/tracedWindow)%2 == 1
				if send(c, i, traced[i]) {
					lat[i] = msSince(due)
				} else {
					lat[i] = math.Inf(1)
				}
			}
		}(w, c)
	}
	wg.Wait()
	res := openResult{duration: time.Since(start)}
	for i, l := range lat {
		if !math.IsNaN(l) {
			res.latMS = append(res.latMS, l)
			res.traced = append(res.traced, traced[i])
		}
	}
	for _, l := range lates {
		res.genLate = append(res.genLate, l...)
	}
	return res
}

// closedWindow is the interval closed-loop throughput is counted over.
const closedWindow = 500 * time.Millisecond

// closedLoop runs conns clients that each send their next request as soon
// as the previous one completes, for dur, and returns the successful
// responses per second in each whole window, plus the attempted and
// failed counts.
func closedLoop(ctx context.Context, dur time.Duration, conns int, send func(c *http.Client, worker, k int) bool) (perWindow []float64, attempted, failed int64, err error) {
	const window = closedWindow
	windows := int(dur / window)
	if windows < 1 {
		return nil, 0, 0, fmt.Errorf("closed loop of %v is shorter than one %v window", dur, window)
	}
	counts := make([]atomic.Int64, windows)
	var att, fail atomic.Int64
	start := time.Now()
	end := start.Add(time.Duration(windows) * window)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(1)
			defer c.CloseIdleConnections()
			for k := 0; ctx.Err() == nil && time.Now().Before(end); k++ {
				ok := send(c, w, k)
				att.Add(1)
				if !ok {
					fail.Add(1)
					continue
				}
				if idx := int(time.Since(start) / window); idx < windows {
					counts[idx].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	perWindow = make([]float64, windows)
	for i := range counts {
		perWindow[i] = float64(counts[i].Load()) / window.Seconds()
	}
	return perWindow, att.Load(), fail.Load(), ctx.Err()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// beyond returns how many of n sorted samples lie strictly beyond the
// nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// minLatencySamples is the fewest samples a p99 is taken over: ten
// beyond it, with a margin.
const minLatencySamples = 1100

// tailQuantiles is the ladder the tail percentile is chosen from.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// latencySummary is the median of a latency sample and its highest
// percentile that still has at least 10 samples beyond it. Failures are
// +Inf in the sample, so they count as missing every latency limit; a
// percentile that lands on one is reported as ceilMS, the longest any
// request could have waited.
type latencySummary struct {
	n      int
	p50    float64
	tailQ  float64 // 0 when no ladder quantile has 10 samples beyond it
	tail   float64
	p99    float64
	p99Set bool
}

func summarize(latMS []float64, ceilMS float64) latencySummary {
	s := append([]float64(nil), latMS...)
	sort.Float64s(s)
	clip := func(v float64) float64 { return math.Min(v, ceilMS) }
	sum := latencySummary{n: len(s), p50: clip(quantile(s, 0.5))}
	for _, q := range tailQuantiles {
		if beyond(len(s), q) >= 10 {
			sum.tailQ, sum.tail = q, clip(quantile(s, q))
			break
		}
	}
	if beyond(len(s), 0.99) >= 10 {
		sum.p99, sum.p99Set = clip(quantile(s, 0.99)), true
	}
	return sum
}

// lowestP99 splits latencies, in arrival order, into the most
// consecutive groups that each keep at least minLatencySamples (so p99
// has ten samples beyond it in every group) and returns the lowest of
// the groups' p99s with the p99s themselves. Other tenants of a shared
// host stall whole stretches of a run, and a p99 taken over the run
// measures their worst stretch; the lowest group is the one they
// disturbed least, while a change to the fleet's own cost moves every
// group.
func lowestP99(latMS []float64, ceilMS float64) (float64, []float64, error) {
	groups := len(latMS) / minLatencySamples
	if groups < 1 {
		return 0, nil, fmt.Errorf("%d latency samples, too few for p99", len(latMS))
	}
	p99s := make([]float64, groups)
	for g := range p99s {
		lo, hi := g*len(latMS)/groups, (g+1)*len(latMS)/groups
		p99s[g] = summarize(latMS[lo:hi], ceilMS).p99
	}
	return slices.Min(p99s), p99s, nil
}

// timeAtReference returns the median over a run's parts of each part's
// time, secs[i], divided by the host's scale over it, slow[i] (see
// hostGauge.lap).
func timeAtReference(secs, slow []float64) float64 {
	v := make([]float64, len(secs))
	for i := range secs {
		v[i] = secs[i] / slow[i]
	}
	return median(v)
}

// rateAtReference returns the median over a run's throughput windows of
// each window's rate times the host's scale over its part: windows[i]
// were counted in the part with scale slow[i].
func rateAtReference(windows [][]float64, slow []float64) float64 {
	var v []float64
	for i, part := range windows {
		for _, w := range part {
			v = append(v, w*slow[i])
		}
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
