package front

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// viaHeaders sends one request through the router's handler with extra
// request headers.
func viaHeaders(t *testing.T, rt *Router, method, target, body string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Result().Header, rec.Body.Bytes()
}

// findSpans walks a span forest collecting every node with the name.
func findSpans(trees []*obs.SpanTree, name string) []*obs.SpanTree {
	var out []*obs.SpanTree
	var walk func(n *obs.SpanTree)
	walk = func(n *obs.SpanTree) {
		if n.Name == name {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range trees {
		walk(n)
	}
	return out
}

// TestFederatedTraceEndToEnd is the acceptance round: one request traced
// through the front to a replica yields, at the front's
// /debug/trace/{id}, a single tree containing both processes' spans with
// the replica's serve.request parented under the front's attempt span.
func TestFederatedTraceEndToEnd(t *testing.T) {
	s := serve.NewServer(serve.Config{Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	rt := newTestRouter(t, Config{Replicas: []string{hostPort(ts)}})
	const tid = "e2e-front-trace-1"
	code, hdr, _ := viaHeaders(t, rt, "POST", "/v1/cost", `{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":1500}`,
		map[string]string{"X-Trace-Id": tid})
	if code != http.StatusOK {
		t.Fatalf("proxied request = %d", code)
	}
	if got := hdr.Get("X-Trace-Id"); got != tid {
		t.Fatalf("response X-Trace-Id = %q, want %q", got, tid)
	}

	fcode, _, raw := via(t, rt, "GET", "/debug/trace/"+tid, "")
	if fcode != http.StatusOK {
		t.Fatalf("federated trace = %d: %s", fcode, raw)
	}
	var fed federatedTraceResponse
	if err := json.Unmarshal(raw, &fed); err != nil {
		t.Fatalf("decode federated trace: %v\n%s", err, raw)
	}
	if len(fed.Spans) != 1 || fed.Spans[0].Name != "front.request" {
		t.Fatalf("federated forest roots = %+v, want exactly one front.request", fed.Spans)
	}
	if fed.Partial {
		t.Fatalf("trace reported partial with all replicas up: %+v", fed.Replicas)
	}
	attempts := findSpans(fed.Spans, "front.attempt")
	if len(attempts) != 1 {
		t.Fatalf("front.attempt spans = %d, want 1", len(attempts))
	}
	serveReqs := findSpans(attempts[0].Children, "serve.request")
	if len(serveReqs) != 1 {
		t.Fatalf("serve.request under front.attempt = %d, want 1 (children: %+v)",
			len(serveReqs), attempts[0].Children)
	}
	if serveReqs[0].ParentID != attempts[0].SpanID {
		t.Fatalf("serve.request parent = %q, want attempt span %q",
			serveReqs[0].ParentID, attempts[0].SpanID)
	}
	// The replica's own child stages rode along in the merge.
	if len(serveReqs[0].Children) == 0 {
		t.Fatal("replica's serve.request has no child spans in the federated tree")
	}
	info := fed.Replicas[hostPort(ts)]
	if info.Spans == 0 || info.Error != "" {
		t.Fatalf("replica accounting = %+v", info)
	}
	if fed.FrontSpans == 0 {
		t.Fatal("front contributed no spans")
	}
}

// TestRetryKeepsTraceAcrossAttempts: a transport failure on the first
// replica retries under the SAME trace id, recording each hop as its own
// front.attempt span — one failed, one succeeded, both siblings under
// the single front.request root.
func TestRetryKeepsTraceAcrossAttempts(t *testing.T) {
	dead := echoBackend("dead")
	deadAddr := hostPort(dead)
	dead.Close() // keep the address, kill the listener
	live := echoBackend("live")
	defer live.Close()

	rt := newTestRouter(t, Config{Replicas: []string{deadAddr, hostPort(live)}})
	body := bodyKeyedTo(t, rt, "POST", "/v1/cost", deadAddr)
	const tid = "retry-trace-1"
	code, hdr, _ := viaHeaders(t, rt, "POST", "/v1/cost", body, map[string]string{"X-Trace-Id": tid})
	if code != http.StatusOK {
		t.Fatalf("retried request = %d", code)
	}
	if hdr.Get("X-Backend") != hostPort(live) {
		t.Fatalf("served by %q, want the live replica", hdr.Get("X-Backend"))
	}

	tr, ok := rt.tracer.Lookup(tid)
	if !ok {
		t.Fatalf("no front trace %q recorded", tid)
	}
	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Name != "front.request" {
		t.Fatalf("trace roots = %+v, want one front.request", tree)
	}
	attempts := findSpans(tree, "front.attempt")
	if len(attempts) != 2 {
		t.Fatalf("front.attempt spans = %d, want 2 (one per hop)", len(attempts))
	}
	for _, a := range attempts {
		if a.ParentID != tree[0].SpanID {
			t.Fatalf("attempt %s parents to %q, not the root: hops must be siblings", a.SpanID, a.ParentID)
		}
	}
	var failed, served bool
	for _, a := range attempts {
		switch a.Attrs["replica"] {
		case deadAddr:
			if a.Attrs["error"] == "" {
				t.Fatalf("dead-replica attempt has no error attr: %+v", a.Attrs)
			}
			failed = true
		case hostPort(live):
			if a.Attrs["status"] != "200" {
				t.Fatalf("live-replica attempt status attr = %q", a.Attrs["status"])
			}
			served = true
		}
	}
	if !failed || !served {
		t.Fatalf("attempts did not cover both replicas: %+v", attempts)
	}
}

// TestChaseHopsAreSiblingSpans: a 404-chased job request records every
// hop as a sibling front.attempt span, the miss annotated as a chase.
func TestChaseHopsAreSiblingSpans(t *testing.T) {
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"job_not_found"}}`, http.StatusNotFound)
	}))
	defer notFound.Close()
	owner := echoBackend("owner")
	defer owner.Close()

	rt := newTestRouter(t, Config{Replicas: []string{hostPort(notFound), hostPort(owner)}})
	id := jobIDKeyedTo(t, rt, hostPort(notFound))
	const tid = "chase-trace-1"
	code, hdr, _ := viaHeaders(t, rt, "GET", "/v1/jobs/"+id, "", map[string]string{"X-Trace-Id": tid})
	if code != http.StatusOK {
		t.Fatalf("chased request = %d", code)
	}
	if hdr.Get("X-Backend") != hostPort(owner) {
		t.Fatalf("served by %q, want the owning replica", hdr.Get("X-Backend"))
	}

	tr, ok := rt.tracer.Lookup(tid)
	if !ok {
		t.Fatalf("no front trace %q recorded", tid)
	}
	tree := tr.Tree()
	attempts := findSpans(tree, "front.attempt")
	if len(attempts) != 2 {
		t.Fatalf("front.attempt spans = %d, want 2", len(attempts))
	}
	root := tree[0]
	var sawChase bool
	for _, a := range attempts {
		if a.ParentID != root.SpanID {
			t.Fatalf("attempt %s is not a sibling hop under the root", a.SpanID)
		}
		if a.Attrs["chase"] != "" {
			sawChase = true
			if a.Attrs["replica"] != hostPort(notFound) {
				t.Fatalf("chase attr on %q, want the 404 replica", a.Attrs["replica"])
			}
		}
	}
	if !sawChase {
		t.Fatalf("no attempt marked as a chase: %+v", attempts)
	}
}

// TestFederatedTracePartialOnReplicaDown: federation with an unreachable
// replica answers 200 with the reachable spans and the failure annotated
// — a partial tree, never an error.
func TestFederatedTracePartialOnReplicaDown(t *testing.T) {
	s := serve.NewServer(serve.Config{Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	dead := echoBackend("dead")
	deadAddr := hostPort(dead)
	dead.Close()

	rt := newTestRouter(t, Config{Replicas: []string{hostPort(ts), deadAddr}})
	const tid = "partial-trace-1"
	body := bodyKeyedToScenario(t, rt, hostPort(ts))
	if code, _, _ := viaHeaders(t, rt, "POST", "/v1/cost", body, map[string]string{"X-Trace-Id": tid}); code != http.StatusOK {
		t.Fatalf("traced request failed")
	}

	fcode, _, raw := via(t, rt, "GET", "/debug/trace/"+tid, "")
	if fcode != http.StatusOK {
		t.Fatalf("federated trace with a replica down = %d, want 200: %s", fcode, raw)
	}
	var fed federatedTraceResponse
	if err := json.Unmarshal(raw, &fed); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !fed.Partial {
		t.Fatal("response not marked partial with a replica unreachable")
	}
	if fed.Replicas[deadAddr].Error == "" {
		t.Fatalf("dead replica not annotated: %+v", fed.Replicas)
	}
	if len(findSpans(fed.Spans, "front.request")) != 1 {
		t.Fatalf("partial tree lost the front spans: %+v", fed.Spans)
	}
	if fed.Replicas[hostPort(ts)].Error != "" {
		t.Fatalf("live replica wrongly annotated: %+v", fed.Replicas)
	}
}

// lockedBuffer is a concurrency-safe log sink for asserting on both
// processes' access logs.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRequestIDJoinsFrontAndReplicaLogs is the request-id regression:
// the id minted (or echoed) at the front is forwarded to the replica and
// echoed back on the proxied response, and the SAME id appears in both
// processes' access-log lines — the join key for cross-process debugging.
func TestRequestIDJoinsFrontAndReplicaLogs(t *testing.T) {
	var replicaLog, frontLog lockedBuffer
	s := serve.NewServer(serve.Config{Logger: slog.New(slog.NewTextHandler(&replicaLog, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	rt := newTestRouter(t, Config{
		Replicas: []string{hostPort(ts)},
		Logger:   slog.New(slog.NewTextHandler(&frontLog, nil)),
	})
	const reqID = "join-req-id-1"
	code, hdr, _ := viaHeaders(t, rt, "POST", "/v1/cost", `{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":1500}`,
		map[string]string{"X-Request-Id": reqID})
	if code != http.StatusOK {
		t.Fatalf("proxied request = %d", code)
	}
	if got := hdr.Values("X-Request-Id"); len(got) != 1 || got[0] != reqID {
		t.Fatalf("response X-Request-Id = %v, want exactly [%q]", got, reqID)
	}

	needle := "request_id=" + reqID
	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(frontLog.String(), needle) && strings.Contains(replicaLog.String(), needle) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request id %q not in both logs\nfront:\n%s\nreplica:\n%s",
				reqID, frontLog.String(), replicaLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestObservabilityRoutesNotTracedOnFront: the router's own endpoints
// never open root spans — only proxied traffic does.
func TestObservabilityRoutesNotTracedOnFront(t *testing.T) {
	a := echoBackend("a")
	defer a.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(a)}})
	for _, target := range []string{"/healthz", "/readyz", "/frontz", "/metrics", "/debug/trace/none"} {
		via(t, rt, "GET", target, "")
	}
	if got := rt.tracer.Len(); got != 0 {
		t.Fatalf("observability traffic recorded %d traces, want 0", got)
	}
	if code, _, _ := viaHeaders(t, rt, "GET", "/v1/figures/1", "", map[string]string{"X-Trace-Id": "traced-1"}); code != http.StatusOK {
		t.Fatal("proxied request failed")
	}
	if _, ok := rt.tracer.Lookup("traced-1"); !ok {
		t.Fatal("proxied request did not record a trace")
	}
	// A hostile client trace id is replaced, never recorded verbatim.
	viaHeaders(t, rt, "GET", "/v1/figures/2", "", map[string]string{"X-Trace-Id": "bad id\n{}"})
	if _, ok := rt.tracer.Lookup("bad id\n{}"); ok {
		t.Fatal("hostile trace id stored verbatim")
	}
	if got := obs.SanitizeID("bad id\n{}"); got != "" {
		t.Fatalf("SanitizeID accepted a hostile id as %q", got)
	}
}
