package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTraceTreeAndLookup(t *testing.T) {
	reg := NewRegistry()
	spans := reg.NewHistogramVec("span_seconds", "", DurationBuckets, "stage")
	tr := NewTracer(8, spans)

	ctx, root := tr.StartRoot(context.Background(), "req-1", "serve.request")
	root.SetAttr("method", "POST")
	ctx2, eval := StartSpan(ctx, "core.eval")
	_, fill := StartSpan(ctx2, "memo.fill")
	fill.SetAttr("cache", "serve.figures")
	fill.End()
	eval.End()
	_, sweep := StartSpan(ctx, "core.sweep_sd")
	sweep.End()
	root.End()

	trace, ok := tr.Lookup("req-1")
	if !ok {
		t.Fatal("trace req-1 not retrievable after root End")
	}
	if len(trace.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(trace.Spans))
	}

	roots := trace.Tree()
	if len(roots) != 1 || roots[0].Name != "serve.request" {
		t.Fatalf("tree roots = %+v, want single serve.request", roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root has %d children, want 2 (core.eval, core.sweep_sd)", len(roots[0].Children))
	}
	if roots[0].Children[0].Name != "core.eval" {
		t.Errorf("first child = %s, want core.eval (start order)", roots[0].Children[0].Name)
	}
	if len(roots[0].Children[0].Children) != 1 || roots[0].Children[0].Children[0].Name != "memo.fill" {
		t.Errorf("core.eval child = %+v, want memo.fill", roots[0].Children[0].Children)
	}
	if got := roots[0].Children[0].Children[0].Attrs["cache"]; got != "serve.figures" {
		t.Errorf("memo.fill cache attr = %q", got)
	}

	out := trace.Format()
	for _, want := range []string{"trace req-1", "serve.request", "  core.eval", "    memo.fill cache=serve.figures", "  core.sweep_sd"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q in:\n%s", want, out)
		}
	}

	// Each stage fed the histogram exactly once.
	for _, stage := range []string{"serve.request", "core.eval", "memo.fill", "core.sweep_sd"} {
		if n := spans.With(stage).Count(); n != 1 {
			t.Errorf("span histogram for %s has %d observations, want 1", stage, n)
		}
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2, nil)
	for i := 0; i < 3; i++ {
		_, root := tr.StartRoot(context.Background(), fmt.Sprintf("t%d", i), "root")
		root.End()
	}
	if tr.Len() != 2 {
		t.Fatalf("ring holds %d traces, want 2", tr.Len())
	}
	if _, ok := tr.Lookup("t0"); ok {
		t.Error("oldest trace t0 survived eviction")
	}
	for _, id := range []string{"t1", "t2"} {
		if _, ok := tr.Lookup(id); !ok {
			t.Errorf("trace %s evicted too early", id)
		}
	}
}

func TestSpanCapPerTrace(t *testing.T) {
	tr := NewTracer(1, nil)
	ctx, root := tr.StartRoot(context.Background(), "big", "root")
	const extra = 100
	for i := 0; i < maxSpansPerTrace+extra; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	trace, ok := tr.Lookup("big")
	if !ok {
		t.Fatal("trace not committed")
	}
	if len(trace.Spans) != maxSpansPerTrace {
		t.Errorf("retained %d spans, want cap %d", len(trace.Spans), maxSpansPerTrace)
	}
	// root itself is the +1 that got dropped along with the overflow.
	if trace.DroppedSpans != extra+1 {
		t.Errorf("dropped = %d, want %d", trace.DroppedSpans, extra+1)
	}
}

// TestUntracedStartSpanAllocs is the zero-cost contract: on a context
// with no active trace, StartSpan must not allocate — this is what keeps
// permanently instrumented hot paths (TransistorCostCtx) alloc-free.
func TestUntracedStartSpanAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "core.eval")
		sp.SetAttr("k", "v")
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("untraced StartSpan allocates %v times per run, want 0", allocs)
	}
}

func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.End()
	sp.End()
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Error("nil span accessors must return empty strings")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Errorf("SpanFromContext on bare ctx = %v, want nil", got)
	}
}

// TestConcurrentSpanRecording exercises many goroutines opening and
// ending child spans of one trace while other traces commit into the
// ring; run under -race.
func TestConcurrentSpanRecording(t *testing.T) {
	reg := NewRegistry()
	spans := reg.NewHistogramVec("cc_span_seconds", "", DurationBuckets, "stage")
	tr := NewTracer(4, spans)
	ctx, root := tr.StartRoot(context.Background(), "conc", "root")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c2, sp := StartSpan(ctx, "worker")
				_, inner := StartSpan(c2, "inner")
				inner.End()
				sp.End()
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, r := tr.StartRoot(context.Background(), fmt.Sprintf("other-%d", i), "root")
			r.End()
			tr.Lookup("conc")
		}(i)
	}
	wg.Wait()
	root.End()

	trace, ok := tr.Lookup("conc")
	if !ok {
		t.Fatal("trace conc not committed")
	}
	// 8 workers × 50 iterations × 2 spans + root = 801 > cap; retained
	// exactly the cap, rest counted as dropped.
	if got := len(trace.Spans) + trace.DroppedSpans; got != 8*50*2+1 {
		t.Errorf("spans+dropped = %d, want %d", got, 8*50*2+1)
	}
	if len(trace.Spans) != maxSpansPerTrace {
		t.Errorf("retained %d, want %d", len(trace.Spans), maxSpansPerTrace)
	}
}

func TestSanitizeID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc-DEF_123", "abc-DEF_123"},
		{"", ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), ""},
		{"has space", ""},
		{"has\nnewline", ""},
		{`quo"te`, ""},
		{"héllo", ""},
	}
	for _, tc := range cases {
		if got := SanitizeID(tc.in); got != tc.want {
			t.Errorf("SanitizeID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNewIDsUniqueAndSane(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 32 || SanitizeID(id) == "" {
			t.Fatalf("bad trace ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
	if id := NewRequestID(); len(id) != 16 || SanitizeID(id) == "" {
		t.Fatalf("bad request ID %q", id)
	}
}
