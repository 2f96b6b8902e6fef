package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the shared latency-histogram bucket layout, in
// seconds. It spans half a millisecond to ten seconds, matching the
// service's request-latency histogram so span-duration families are
// directly comparable with request latencies on the same scrape.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// labelEscaper implements the text exposition format's label-value
// escaping: exactly backslash, double quote and newline. Everything else
// (tabs, UTF-8) passes through raw.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one name="value" pair with conformant escaping.
func Label(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// formatFloat renders a float64 the way the exposition format expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// collector is one registered family: it renders its complete block
// (HELP, TYPE, samples) contiguously.
type collector interface {
	write(w io.Writer)
}

// Registry is an ordered set of metric families rendered in the
// Prometheus text exposition format (version 0.0.4). It is
// instance-based — each Server owns one — so tests that build several
// servers never share counters. All methods are safe for concurrent use;
// registration of a duplicate family name panics, since two owners for
// one family is a programming error that would silently produce a
// non-contiguous (non-conformant) scrape.
type Registry struct {
	mu         sync.Mutex
	names      map[string]struct{}
	collectors []collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]struct{}{}}
}

// register claims the family names and appends the collector, preserving
// registration order in the scrape.
func (r *Registry) register(c collector, names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		if _, dup := r.names[name]; dup {
			panic(fmt.Sprintf("obs: duplicate metric family %q", name))
		}
		r.names[name] = struct{}{}
	}
	r.collectors = append(r.collectors, c)
}

// Render writes every registered family, in registration order, as one
// contiguous block per family.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	collectors := make([]collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	for _, c := range collectors {
		c.write(w)
	}
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers and returns a scalar counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c, name)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// ---------------------------------------------------------------------------
// CounterVec

// CounterVec is a counter family partitioned by one or more label
// dimensions. Children are created on first use and rendered in sorted
// label order so the scrape is deterministic.
type CounterVec struct {
	name, help string
	labels     []string

	mu       sync.Mutex
	children map[string]*Counter // key: joined escaped label pairs
}

// NewCounterVec registers and returns a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	v := &CounterVec{name: name, help: help, labels: labels, children: map[string]*Counter{}}
	r.register(v, name)
	return v
}

func (v *CounterVec) key(values []string) string {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	pairs := make([]string, len(values))
	for i, val := range values {
		pairs[i] = Label(v.labels[i], val)
	}
	return strings.Join(pairs, ",")
}

// With returns the child counter for the given label values, creating it
// on first use.
func (v *CounterVec) With(values ...string) *Counter {
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[k]
	if !ok {
		c = &Counter{}
		v.children[k] = c
	}
	return c
}

// Value returns the child's count, zero if the label set was never used.
func (v *CounterVec) Value(values ...string) uint64 {
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[k]; ok {
		return c.Value()
	}
	return 0
}

func (v *CounterVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, k, v.children[k].Value())
	}
	v.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a settable int64 metric.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers and returns a scalar gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g, name)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
}

// ---------------------------------------------------------------------------
// GaugeVec

// GaugeVec is a gauge family partitioned by one or more label
// dimensions — per-replica health of a router's backend set, for
// example. Children are created on first use and rendered in sorted
// label order so the scrape is deterministic.
type GaugeVec struct {
	name, help string
	labels     []string

	mu       sync.Mutex
	children map[string]*Gauge // key: joined escaped label pairs
}

// NewGaugeVec registers and returns a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	v := &GaugeVec{name: name, help: help, labels: labels, children: map[string]*Gauge{}}
	r.register(v, name)
	return v
}

func (v *GaugeVec) key(values []string) string {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	pairs := make([]string, len(values))
	for i, val := range values {
		pairs[i] = Label(v.labels[i], val)
	}
	return strings.Join(pairs, ",")
}

// With returns the child gauge for the given label values, creating it
// on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[k]
	if !ok {
		g = &Gauge{}
		v.children[k] = g
	}
	return g
}

func (v *GaugeVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "gauge")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, k, v.children[k].Value())
	}
	v.mu.Unlock()
}

// FloatGauge is a settable float64 metric, for rate-style instruments
// (trials/sec of a running simulation job) where the producer pushes a
// computed value rather than the registry sampling one at scrape time.
// The value is stored as raw float64 bits in a single atomic word, so
// Set and Value are wait-free.
type FloatGauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewFloatGauge registers and returns a scalar float64 gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{name: name, help: help}
	r.register(g, name)
	return g
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FloatGauge) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram accumulates observations into fixed buckets and renders them
// cumulatively (le="+Inf" always equals _count). The zero value is not
// usable; construct with NewHistogram. A Histogram may live outside any
// registry (package-level instruments in internal/parallel) and be
// attached to one or more registries for scraping.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // per-bound, non-cumulative; cumulated at render time
	sum    float64
	count  uint64
}

// NewHistogram returns a standalone histogram with the given upper
// bounds, which must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, bound := range h.bounds {
		if v <= bound {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of all observations so far, or 0 when nothing has
// been observed. Adaptive consumers (the parallel chunk tuner) use it to
// seed their estimates from the same measurements the scrape exposes.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// snapshot returns cumulative bucket counts, sum and count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	sum, count = h.sum, h.count
	h.mu.Unlock()
	return cum, sum, count
}

// writeSamples renders the histogram's sample lines under the given
// family name, with extraLabels (already escaped pairs, possibly empty)
// prefixed to each bucket's le label.
func (h *Histogram) writeSamples(w io.Writer, name, extraLabels string) {
	cum, sum, count := h.snapshot()
	sep := ""
	if extraLabels != "" {
		sep = ","
	}
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%s%s} %d\n", name, extraLabels, sep, Label("le", formatFloat(bound)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%s%s} %d\n", name, extraLabels, sep, Label("le", "+Inf"), count)
	if extraLabels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
		fmt.Fprintf(w, "%s_count %d\n", name, count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, extraLabels, formatFloat(sum))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, extraLabels, count)
	}
}

// registeredHistogram binds a standalone Histogram to a family name.
type registeredHistogram struct {
	name, help string
	h          *Histogram
}

func (rh *registeredHistogram) write(w io.Writer) {
	writeHeader(w, rh.name, rh.help, "histogram")
	rh.h.writeSamples(w, rh.name, "")
}

// NewHistogramOn registers and returns a scalar histogram.
func (r *Registry) NewHistogramOn(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.AttachHistogram(name, help, h)
	return h
}

// AttachHistogram registers an existing standalone histogram under the
// given family name. Package-level instruments (e.g. the worker pool's
// chunk timings) are built once with NewHistogram and attached to each
// server's registry.
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {
	r.register(&registeredHistogram{name: name, help: help, h: h}, name)
}

// ---------------------------------------------------------------------------
// HistogramVec

// HistogramVec is a histogram family partitioned by one or more label
// dimensions, e.g. span duration by stage. All children share one bucket
// layout and render contiguously under a single TYPE header.
type HistogramVec struct {
	name, help string
	labels     []string
	bounds     []float64

	mu       sync.Mutex
	children map[string]*Histogram
}

// NewHistogramVec registers and returns a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	v := &HistogramVec{name: name, help: help, labels: labels, bounds: bounds, children: map[string]*Histogram{}}
	r.register(v, name)
	return v
}

// With returns the child histogram for the given label values, creating
// it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	pairs := make([]string, len(values))
	for i, val := range values {
		pairs[i] = Label(v.labels[i], val)
	}
	k := strings.Join(pairs, ",")
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[k]
	if !ok {
		h = NewHistogram(v.bounds)
		v.children[k] = h
	}
	return h
}

func (v *HistogramVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "histogram")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*Histogram, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		children[i].writeSamples(w, v.name, k)
	}
}

// ---------------------------------------------------------------------------
// Raw collectors

// rawCollector delegates rendering of one or more families to a
// function, for packages that keep their own counters (memo caches)
// or sample external state (Go runtime).
type rawCollector struct {
	fn func(io.Writer)
}

func (rc *rawCollector) write(w io.Writer) { rc.fn(w) }

// RegisterRaw registers a collector that renders the listed families
// itself, HELP/TYPE lines included. The names are claimed against
// duplicates; fn must emit each family contiguously.
func (r *Registry) RegisterRaw(names []string, fn func(io.Writer)) {
	r.register(&rawCollector{fn: fn}, names...)
}

// RegisterGoRuntime registers the Go runtime families: goroutine count,
// heap usage and garbage-collection totals, sampled at scrape time from
// a single runtime.ReadMemStats call.
func (r *Registry) RegisterGoRuntime() {
	r.RegisterRaw([]string{
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
		"go_memstats_heap_objects",
		"go_gc_cycles_total",
		"go_gc_pause_seconds_total",
	}, func(w io.Writer) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		writeHeader(w, "go_goroutines", "Number of goroutines that currently exist.", "gauge")
		fmt.Fprintf(w, "go_goroutines %d\n", runtime.NumGoroutine())
		writeHeader(w, "go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
		fmt.Fprintf(w, "go_memstats_heap_alloc_bytes %d\n", ms.HeapAlloc)
		writeHeader(w, "go_memstats_heap_objects", "Number of allocated heap objects.", "gauge")
		fmt.Fprintf(w, "go_memstats_heap_objects %d\n", ms.HeapObjects)
		writeHeader(w, "go_gc_cycles_total", "Completed garbage-collection cycles.", "counter")
		fmt.Fprintf(w, "go_gc_cycles_total %d\n", ms.NumGC)
		writeHeader(w, "go_gc_pause_seconds_total", "Cumulative stop-the-world pause time.", "counter")
		fmt.Fprintf(w, "go_gc_pause_seconds_total %s\n", formatFloat(float64(ms.PauseTotalNs)/1e9))
	})
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}
