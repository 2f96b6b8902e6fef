package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpansPerTrace bounds how many completed spans one trace retains, so
// a hostile or pathological request (a 1024-item batch fanning out over
// every stage) cannot grow a trace record without limit. Overflow is
// counted, not silently dropped.
const maxSpansPerTrace = 512

// spanKey is the context key for the active span. It is a zero-sized
// type on purpose: ctx.Value(spanKey{}) allocates nothing, which is what
// keeps StartSpan free on untraced contexts (the AllocsPerRun contract
// on the evaluation hot path).
type spanKey struct{}

// SpanRecord is one completed span as stored in the trace ring buffer
// and served by GET /debug/trace/{id}.
type SpanRecord struct {
	Name       string            `json:"name"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceRecord is one completed trace: every span that ended before the
// root did, in end order.
type TraceRecord struct {
	TraceID      string       `json:"trace_id"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// activeTrace is the mutable state of a trace in flight. Spans from
// parallel stages (batch fan-out, memoized fills) end concurrently, so
// every field is guarded by mu.
type activeTrace struct {
	traceID string
	// spanPrefix makes span IDs unique across processes sharing one trace
	// ID: every process (and every root started within one) mints its own
	// random prefix, so a federated merge of two replicas' span sets never
	// sees the same "0001" twice.
	spanPrefix string
	tracer     *Tracer

	mu        sync.Mutex
	seq       uint64
	completed []SpanRecord
	dropped   int
}

func (at *activeTrace) nextSpanID() string {
	at.mu.Lock()
	at.seq++
	id := at.seq
	at.mu.Unlock()
	return fmt.Sprintf("%s%04x", at.spanPrefix, id)
}

// Span is one timed stage of a trace. The nil *Span is a valid receiver
// for every method and does nothing, so instrumented code never branches
// on whether tracing is enabled.
type Span struct {
	at       *activeTrace
	name     string
	spanID   string
	parentID string
	start    time.Time
	root     bool

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// TraceID returns the ID of the trace this span belongs to, or "" for a
// nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.at.traceID
}

// SpanID returns the span's ID, or "" for a nil span. Callers making
// outbound hops put this in X-Parent-Span-Id so the remote process can
// parent its root span under this one.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// SetAttr attaches a key=value attribute to the span. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End completes the span, records it into its trace, and feeds its
// duration into the per-stage histogram if the tracer has one. Ending
// the root span commits the whole trace to the ring buffer. End is
// idempotent and a no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	elapsed := time.Since(s.start)
	rec := SpanRecord{
		Name:       s.name,
		SpanID:     s.spanID,
		ParentID:   s.parentID,
		Start:      s.start,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Attrs:      attrs,
	}

	at := s.at
	at.mu.Lock()
	if len(at.completed) < maxSpansPerTrace {
		at.completed = append(at.completed, rec)
	} else {
		at.dropped++
	}
	at.mu.Unlock()

	if t := at.tracer; t != nil {
		if t.spanSeconds != nil {
			t.spanSeconds.With(s.name).Observe(elapsed.Seconds())
		}
		if s.root {
			at.mu.Lock()
			trace := &TraceRecord{TraceID: at.traceID, DroppedSpans: at.dropped, Spans: at.completed}
			at.mu.Unlock()
			t.commit(trace)
		}
	}
}

// StartSpan opens a child span of the active span on ctx, returning a
// derived context carrying the child. When no trace is active — the
// common case on every untraced request and on every library call made
// outside a request — it returns (ctx, nil) without allocating, and all
// methods on the nil span are no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{
		at:       parent.at,
		name:     name,
		spanID:   parent.at.nextSpanID(),
		parentID: parent.spanID,
		start:    time.Now(),
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFromContext returns the active span on ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Tracer owns a bounded FIFO ring of completed traces, keyed by trace
// ID, and optionally feeds span durations into a per-stage histogram.
type Tracer struct {
	capacity    int
	spanSeconds *HistogramVec

	mu           sync.Mutex
	byID         map[string]*TraceRecord
	order        []string
	spansDropped uint64
	evicted      uint64
}

// NewTracer returns a tracer retaining up to capacity completed traces.
// spanSeconds may be nil; when set, every span's duration is observed
// into it labelled by stage name.
func NewTracer(capacity int, spanSeconds *HistogramVec) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capacity: capacity, spanSeconds: spanSeconds, byID: map[string]*TraceRecord{}}
}

// StartRoot opens the root span of a new trace. An empty traceID gets a
// fresh random one; callers propagating an external ID must sanitize it
// first (SanitizeID).
func (t *Tracer) StartRoot(ctx context.Context, traceID, name string) (context.Context, *Span) {
	return t.StartRootWithParent(ctx, traceID, "", name)
}

// StartRootWithParent opens the root span of a trace whose parent lives
// in another process: parentID is the caller's X-Parent-Span-Id, so the
// federated tree can attach this process's subtree under the remote
// span. An empty parentID makes a plain root; an empty traceID gets a
// fresh random one. Both IDs must already be sanitized (SanitizeID).
func (t *Tracer) StartRootWithParent(ctx context.Context, traceID, parentID, name string) (context.Context, *Span) {
	if traceID == "" {
		traceID = NewTraceID()
	}
	at := &activeTrace{traceID: traceID, spanPrefix: randHex(3), tracer: t}
	sp := &Span{
		at:       at,
		name:     name,
		spanID:   at.nextSpanID(),
		parentID: parentID,
		start:    time.Now(),
		root:     true,
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// commit stores a completed trace, evicting the oldest when full. A
// commit under an ID already in the ring merges into the stored record
// rather than overwriting it: background job work (worker lease cycles,
// coordinator merges) commits many times under one deterministic trace
// ID, and each commit must accumulate. The merged record stays capped at
// maxSpansPerTrace, with overflow counted as dropped.
func (t *Tracer) commit(trace *TraceRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spansDropped += uint64(trace.DroppedSpans)
	prev, exists := t.byID[trace.TraceID]
	if !exists {
		t.order = append(t.order, trace.TraceID)
		for len(t.order) > t.capacity {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.byID, oldest)
			t.evicted++
		}
		t.byID[trace.TraceID] = trace
		return
	}
	merged := &TraceRecord{
		TraceID:      trace.TraceID,
		DroppedSpans: prev.DroppedSpans + trace.DroppedSpans,
		Spans:        append(append([]SpanRecord{}, prev.Spans...), trace.Spans...),
	}
	if overflow := len(merged.Spans) - maxSpansPerTrace; overflow > 0 {
		merged.Spans = merged.Spans[:maxSpansPerTrace]
		merged.DroppedSpans += overflow
		t.spansDropped += uint64(overflow)
	}
	t.byID[trace.TraceID] = merged
}

// SpansDropped returns the cumulative count of spans dropped by
// per-trace caps across every trace this tracer has committed.
func (t *Tracer) SpansDropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansDropped
}

// TracesEvicted returns how many completed traces the ring has evicted
// to stay within capacity.
func (t *Tracer) TracesEvicted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// RegisterMetrics exports the tracer's loss counters on reg as
// obs_trace_spans_dropped_total and obs_traces_evicted_total, so silent
// span loss is visible on /metrics.
func (t *Tracer) RegisterMetrics(reg *Registry) {
	reg.RegisterRaw([]string{"obs_trace_spans_dropped_total", "obs_traces_evicted_total"}, func(w io.Writer) {
		fmt.Fprintf(w, "# HELP obs_trace_spans_dropped_total Spans dropped by per-trace span caps.\n")
		fmt.Fprintf(w, "# TYPE obs_trace_spans_dropped_total counter\n")
		fmt.Fprintf(w, "obs_trace_spans_dropped_total %d\n", t.SpansDropped())
		fmt.Fprintf(w, "# HELP obs_traces_evicted_total Completed traces evicted from the trace ring.\n")
		fmt.Fprintf(w, "# TYPE obs_traces_evicted_total counter\n")
		fmt.Fprintf(w, "obs_traces_evicted_total %d\n", t.TracesEvicted())
	})
}

// Lookup returns the completed trace with the given ID, if still in the
// ring.
func (t *Tracer) Lookup(traceID string) (*TraceRecord, bool) {
	t.mu.Lock()
	trace, ok := t.byID[traceID]
	t.mu.Unlock()
	return trace, ok
}

// Len returns how many completed traces the ring currently holds.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// SpanTree is a span with its children attached, for JSON rendering of
// /debug/trace responses.
type SpanTree struct {
	SpanRecord
	Children []*SpanTree `json:"children,omitempty"`
}

// Tree reassembles the flat span list into its parent/child structure.
// Roots (spans whose parent is absent) come first by start time, and
// every child list is ordered by start time.
func (tr *TraceRecord) Tree() []*SpanTree {
	return BuildTree(tr.Spans)
}

// BuildTree assembles a flat span set — possibly merged from several
// processes — into its parent/child structure. Spans whose parent ID is
// empty or absent from the set become roots; this is what lets a
// replica's subtree (root parented under a front span by
// X-Parent-Span-Id) attach correctly once both processes' spans are in
// one list, and degrade to a sibling root when the front's spans are
// missing.
func BuildTree(spans []SpanRecord) []*SpanTree {
	nodes := make(map[string]*SpanTree, len(spans))
	for i := range spans {
		rec := spans[i]
		nodes[rec.SpanID] = &SpanTree{SpanRecord: rec}
	}
	var roots []*SpanTree
	placed := make(map[string]bool, len(spans))
	for i := range spans {
		id := spans[i].SpanID
		if placed[id] {
			continue // duplicate span id (e.g. a replica scraped twice)
		}
		placed[id] = true
		node := nodes[id]
		if parent, ok := nodes[node.ParentID]; ok && node.ParentID != "" && parent != node {
			parent.Children = append(parent.Children, node)
		} else {
			roots = append(roots, node)
		}
	}
	sortTrees(roots)
	for _, n := range nodes {
		sortTrees(n.Children)
	}
	return roots
}

// FlattenTrees is the inverse of BuildTree: it returns every span in the
// forest as a flat list, parent IDs intact. Trace federation uses it to
// pool span sets fetched from several replicas before rebuilding one
// cross-process tree.
func FlattenTrees(trees []*SpanTree) []SpanRecord {
	var out []SpanRecord
	var walk func(n *SpanTree)
	walk = func(n *SpanTree) {
		out = append(out, n.SpanRecord)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range trees {
		walk(n)
	}
	return out
}

func sortTrees(ts []*SpanTree) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Start.Equal(ts[j].Start) {
			return ts[i].SpanID < ts[j].SpanID
		}
		return ts[i].Start.Before(ts[j].Start)
	})
}

// Format renders the trace as an indented per-stage timing tree for the
// CLIs' -trace output.
func (tr *TraceRecord) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans", tr.TraceID, len(tr.Spans))
	if tr.DroppedSpans > 0 {
		fmt.Fprintf(&b, ", %d dropped", tr.DroppedSpans)
	}
	b.WriteString(")\n")
	var walk func(nodes []*SpanTree, depth int)
	walk = func(nodes []*SpanTree, depth int) {
		for _, n := range nodes {
			b.WriteString(strings.Repeat("  ", depth+1))
			b.WriteString(n.Name)
			if len(n.Attrs) > 0 {
				keys := make([]string, 0, len(n.Attrs))
				for k := range n.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, " %s=%s", k, n.Attrs[k])
				}
			}
			fmt.Fprintf(&b, "  %.3fms\n", n.DurationMS)
			walk(n.Children, depth+1)
		}
	}
	walk(tr.Tree(), 0)
	return b.String()
}

// SanitizeID validates an externally supplied trace or request ID:
// 1–64 characters from [0-9A-Za-z_-]. Anything else returns "", which
// callers treat as "absent, generate one".
func SanitizeID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// NewTraceID returns a fresh random 128-bit hex trace ID.
func NewTraceID() string { return randHex(16) }

// NewRequestID returns a fresh random 64-bit hex request ID.
func NewRequestID() string { return randHex(8) }

func randHex(nbytes int) string {
	buf := make([]byte, nbytes)
	if _, err := rand.Read(buf); err != nil {
		// crypto/rand failing means the platform entropy source is gone;
		// IDs only need uniqueness within one process lifetime, so fall
		// back to a monotonic counter rather than taking the service down.
		return fmt.Sprintf("fallback-%016x", fallbackSeq.next())
	}
	return hex.EncodeToString(buf)
}

type seqCounter struct {
	mu sync.Mutex
	n  uint64
}

func (s *seqCounter) next() uint64 {
	s.mu.Lock()
	s.n++
	n := s.n
	s.mu.Unlock()
	return n
}

var fallbackSeq seqCounter
