// Package front is nanocostfront: a content-hash-sharding reverse proxy
// over a fixed set of nanocostd replicas. Every request is keyed by a
// hash of its content (method, path, query, body) and routed to the
// replica that owns the key on a consistent-hash ring, so per-replica
// memo caches and job checkpoints shard by content: the same figure
// fetch or job spec always lands on the same warm replica instead of
// warming every cache everywhere.
//
// Health is passive: a replica whose connection fails is benched for a
// cooldown and requests flow to the next ring member; the first
// successful proxy un-benches it. There is no active prober — the
// traffic itself is the health check. Idempotent requests (GET, HEAD,
// DELETE, and the POST model routes, which are pure functions of their
// body — jobs included, being content-addressed) retry on the next ring
// member after a transport failure; a request that has begun streaming
// a response is never retried, so a client sees either one replica's
// bytes or a clean 502, never a splice.
//
// The router's own endpoints: /healthz (router liveness), /readyz
// (ready while at least one replica is unbenched), /frontz (topology:
// replicas and bench state), /metrics (scrape, including the
// front_replica_up per-replica gauge).
package front

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config collects the router's knobs. Replicas is required; everything
// else has a documented default.
type Config struct {
	// Replicas are the backend addresses (host:port). At least one.
	Replicas []string
	// BenchFor is how long a replica stays benched after a transport
	// failure (default 1s). Passive: the next attempt after the cooldown
	// un-benches it on success.
	BenchFor time.Duration
	// ProxyTimeout bounds one backend attempt (default 30s); retries get
	// a fresh budget.
	ProxyTimeout time.Duration
	// MaxBodyBytes caps request body size (default 1 MiB); larger bodies
	// receive 413 without touching a backend.
	MaxBodyBytes int64
	// Logger receives structured proxy and lifecycle logs (default
	// slog.Default()).
	Logger *slog.Logger
	// Transport overrides the backend RoundTripper (tests inject
	// failures); nil uses a dedicated http.Transport.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.BenchFor <= 0 {
		c.BenchFor = time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Transport == nil {
		c.Transport = &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return c
}

// replicaState is the passive health record of one backend.
type replicaState struct {
	addr         string
	benchedUntil atomic.Int64 // unix nanos; 0 = healthy
}

// Router is the nanocostfront proxy. Construct with New; drive with
// ListenAndServe/Serve or mount Handler on a test server.
type Router struct {
	cfg      Config
	log      *slog.Logger
	ring     *ring
	replicas map[string]*replicaState
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the observe middleware
	tracer   *obs.Tracer

	reg            *obs.Registry
	requestsTotal  *obs.CounterVec // by replica and status code (or "transport_error")
	retriesTotal   *obs.Counter
	jobChasesTotal *obs.Counter
	benchedTotal   *obs.CounterVec // by replica
	replicaUp      *obs.GaugeVec   // 1 = unbenched, sampled on change
	proxySeconds   *obs.Histogram
	spanSeconds    *obs.HistogramVec
}

// New builds a Router over cfg.Replicas.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("front: at least one replica is required")
	}
	rt := &Router{
		cfg:      cfg,
		log:      cfg.Logger,
		ring:     newRing(cfg.Replicas),
		replicas: map[string]*replicaState{},
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
	}
	for _, addr := range rt.ring.replicas {
		if _, dup := rt.replicas[addr]; dup {
			return nil, fmt.Errorf("front: duplicate replica %s", addr)
		}
		rt.replicas[addr] = &replicaState{addr: addr}
	}
	rt.requestsTotal = rt.reg.NewCounterVec("front_requests_total",
		"Requests proxied, by replica and status code; transport failures count under code=\"transport_error\".", "replica", "code")
	rt.retriesTotal = rt.reg.NewCounter("front_retries_total",
		"Idempotent requests retried on the next ring member after a transport failure.")
	rt.jobChasesTotal = rt.reg.NewCounter("front_job_chases_total",
		"Job sub-resource requests chased to the next ring member after a 404 (submits shard by body, sub-resources by job id).")
	rt.benchedTotal = rt.reg.NewCounterVec("front_benched_total",
		"Times each replica was benched by a transport failure.", "replica")
	rt.replicaUp = rt.reg.NewGaugeVec("front_replica_up",
		"Per-replica passive health: 1 unbenched, 0 benched.", "replica")
	rt.proxySeconds = rt.reg.NewHistogramOn("front_proxy_seconds",
		"End-to-end proxy latency, successful attempt only.", obs.DurationBuckets)
	rt.spanSeconds = rt.reg.NewHistogramVec("front_span_seconds",
		"Trace span durations by stage.", obs.DurationBuckets, "stage")
	rt.tracer = obs.NewTracer(traceRingCapacity, rt.spanSeconds)
	rt.tracer.RegisterMetrics(rt.reg)
	rt.reg.RegisterGoRuntime()
	for _, addr := range rt.ring.replicas {
		rt.replicaUp.With(addr).Set(1)
	}

	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /frontz", rt.handleFrontz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /debug/trace/{id}", rt.handleTraceFederated)
	rt.mux.HandleFunc("/", rt.proxy)
	rt.handler = rt.observe(rt.mux)
	return rt, nil
}

// Handler returns the router's root handler (the mux wrapped in the
// observe middleware), for httptest mounting.
func (rt *Router) Handler() http.Handler { return rt.handler }

// ListenAndServe listens on addr and serves until ctx is cancelled.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("front: listen %s: %w", addr, err)
	}
	return rt.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then drains briefly. The
// log line carries the bound address the way nanocostd's does, so
// scripts discover ephemeral ports by parsing it.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	rt.log.Info("nanocostfront listening",
		"addr", ln.Addr().String(),
		"replicas", strings.Join(rt.ring.replicas, ","))
	srv := &http.Server{Handler: rt.handler, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return fmt.Errorf("front: %w", err)
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	<-done
	if err != nil {
		return fmt.Errorf("front: shutdown: %w", err)
	}
	rt.log.Info("nanocostfront stopped")
	return nil
}

// benched reports whether addr is inside its cooldown window.
func (rt *Router) benched(addr string) bool {
	until := rt.replicas[addr].benchedUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// bench starts addr's cooldown after a transport failure.
func (rt *Router) bench(addr string) {
	rt.replicas[addr].benchedUntil.Store(time.Now().Add(rt.cfg.BenchFor).UnixNano())
	rt.benchedTotal.With(addr).Inc()
	rt.replicaUp.With(addr).Set(0)
	rt.log.Warn("replica benched", "replica", addr, "for", rt.cfg.BenchFor.String())
}

// unbench clears addr's cooldown after a successful proxy.
func (rt *Router) unbench(addr string) {
	if rt.replicas[addr].benchedUntil.Swap(0) != 0 {
		rt.replicaUp.With(addr).Set(1)
		rt.log.Info("replica recovered", "replica", addr)
	}
}

// idempotentPOSTRoutes are the POST routes safe to retry on another
// replica: each is a pure function of its body. /v1/jobs qualifies
// because job identity is the canonical content hash of the spec — a
// duplicate submit attaches to the existing job, it does not fork one.
var idempotentPOSTRoutes = map[string]bool{
	"/v1/cost":        true,
	"/v1/designcost":  true,
	"/v1/generalized": true,
	"/v1/sweep":       true,
	"/v1/batch":       true,
	"/v1/jobs":        true,
}

// jobSubResourceID extracts the id segment from /v1/jobs/{id}[/...]
// paths, in escaped form so an encoded slash in the path can never
// smuggle extra segments into the id. Returns "" for everything else,
// including the collection itself and the /v1/jobs/open listing (which
// is a daemon-local view, not a job).
func jobSubResourceID(escapedPath string) string {
	rest, ok := strings.CutPrefix(escapedPath, "/v1/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	if id == "open" {
		return ""
	}
	return id
}

// idempotent reports whether a request may be retried on the next ring
// member after a transport failure. Takes the escaped path, matching
// what requestKey hashes and attempt forwards.
func idempotent(method, escapedPath string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodDelete:
		return true
	case http.MethodPost:
		if idempotentPOSTRoutes[escapedPath] {
			return true
		}
		// The distributed-job control routes are retry-safe by protocol
		// design: leases expire on their own and duplicate partial
		// uploads are refused idempotently, so a lost response costs at
		// most one lease TTL.
		if jobSubResourceID(escapedPath) != "" {
			return strings.HasSuffix(escapedPath, "/lease") || strings.HasSuffix(escapedPath, "/partials")
		}
	}
	return false
}

// requestKey is the content hash that shards requests across replicas:
// same method+path+query+body, same replica (and so the same warm memo
// cache and the same job checkpoint directory). The path is hashed in
// escaped form — decoding would collapse /v1/figures/1%2F2 and
// /v1/figures/1/2 onto one key even though backends distinguish them.
// Job sub-resources key by the job id alone, so every status poll,
// result fetch, lease, and partial upload for one job prefers the same
// replica: the one coordinating it.
func requestKey(r *http.Request, body []byte) uint64 {
	path := r.URL.EscapedPath()
	if id := jobSubResourceID(path); id != "" {
		return hash64(append([]byte("job\n"), id...))
	}
	var b []byte
	b = append(b, r.Method...)
	b = append(b, '\n')
	b = append(b, path...)
	b = append(b, '\n')
	b = append(b, r.URL.RawQuery...)
	b = append(b, '\n')
	b = append(b, body...)
	return hash64(b)
}

// attemptOrder is the ring's preference order for key with benched
// replicas moved to the back — never dropped: if everything is benched,
// trying is still better than refusing. The ring's own order is a pure
// function of the key, so benching never reshuffles the healthy
// replicas' relative preference.
func (rt *Router) attemptOrder(key uint64) []string {
	pref := rt.ring.order(key)
	order := make([]string, 0, len(pref))
	var cold []string
	for _, addr := range pref {
		if rt.benched(addr) {
			cold = append(cold, addr)
		} else {
			order = append(order, addr)
		}
	}
	return append(order, cold...)
}

// hopHeaders are the hop-by-hop headers stripped in both directions.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// proxy is the catch-all: pick the preference order for the request's
// content key, move benched replicas to the back (never drop them — if
// everything is benched, trying is still better than failing), and
// attempt in order until a replica answers.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
			return
		}
		writeJSONError(w, http.StatusBadRequest, "body_read_failed", err.Error())
		return
	}

	order := rt.attemptOrder(requestKey(r, body))
	escPath := r.URL.EscapedPath()
	canRetry := idempotent(r.Method, escPath)
	// Job submits shard by body but sub-resources shard by job id, so
	// the first ring member may not be the replica tracking the job: a
	// 404 there is a routing miss, not an answer, and idempotent job
	// requests chase it along the ring until a replica knows the id.
	chaseJob := canRetry && jobSubResourceID(escPath) != ""
	start := time.Now()
	var lastErr error
	for i, addr := range order {
		// Each attempt gets its own child span under the request's root,
		// so retries and 404-chases appear as sibling hops. The attempt
		// span's ID travels in X-Parent-Span-Id, parenting the replica's
		// serve.request root under this exact hop in the federated tree.
		actx, aspan := obs.StartSpan(r.Context(), "front.attempt")
		aspan.SetAttr("replica", addr)
		aspan.SetAttr("attempt", strconv.Itoa(i+1))
		resp, err := rt.attempt(actx, r, addr, body)
		if err != nil {
			// Transport failure: no response existed, so nothing was
			// written to the client and retrying cannot splice payloads.
			aspan.SetAttr("error", err.Error())
			aspan.End()
			rt.requestsTotal.With(addr, "transport_error").Inc()
			rt.bench(addr)
			lastErr = err
			rt.log.Warn("proxy attempt failed", "replica", addr,
				"method", r.Method, "path", escPath, "error", err.Error())
			if canRetry {
				rt.retriesTotal.Inc()
				continue
			}
			break
		}
		rt.unbench(addr)
		aspan.SetAttr("status", strconv.Itoa(resp.StatusCode))
		if chaseJob && resp.StatusCode == http.StatusNotFound && i < len(order)-1 {
			aspan.SetAttr("chase", "routing_miss")
			aspan.End()
			rt.requestsTotal.With(addr, strconv.Itoa(resp.StatusCode)).Inc()
			resp.Body.Close()
			rt.jobChasesTotal.Inc()
			continue
		}
		aspan.End()
		rt.relay(w, resp, addr)
		rt.proxySeconds.Observe(time.Since(start).Seconds())
		return
	}
	if lastErr == nil {
		lastErr = errors.New("no replicas configured")
	}
	writeJSONError(w, http.StatusBadGateway, "no_replica_available", lastErr.Error())
}

// attempt proxies the request to one replica and returns its response,
// or the transport error if no response exists. ctx carries the attempt
// span (when the request is traced), whose IDs are forwarded so the
// replica records its spans under the same trace.
func (rt *Router) attempt(ctx context.Context, r *http.Request, addr string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProxyTimeout)
	// Forward the escaped path verbatim: rebuilding the URL from the
	// decoded Path would turn /v1/figures/1%2F2 into /v1/figures/1/2 and
	// route the backend to a different resource than the client named.
	url := "http://" + addr + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		req.Header.Del(h)
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		req.Header.Set("X-Trace-Id", sp.TraceID())
		req.Header.Set("X-Parent-Span-Id", sp.SpanID())
	}
	resp, err := rt.cfg.Transport.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel travels with the body: relay closes it when done.
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelOnClose releases the attempt's context when the response body
// is closed, so the timeout does not fire mid-relay nor leak.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// relay copies one backend response to the client verbatim, adding
// X-Backend so tests and operators can see the routing decision.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, addr string) {
	defer resp.Body.Close()
	hdr := w.Header()
	for k, vs := range resp.Header {
		// The identity headers were already set by the observe middleware;
		// the replica echoes the forwarded values back, so replace rather
		// than append — a doubled X-Request-Id would un-join the two
		// processes' log lines.
		if k == "X-Request-Id" || k == "X-Trace-Id" {
			hdr.Set(k, vs[len(vs)-1])
			continue
		}
		for _, v := range vs {
			hdr.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		hdr.Del(h)
	}
	hdr.Set("X-Backend", addr)
	w.WriteHeader(resp.StatusCode)
	n, err := io.Copy(w, resp.Body)
	rt.requestsTotal.With(addr, strconv.Itoa(resp.StatusCode)).Inc()
	if err != nil {
		// Mid-stream backend failure after bytes flowed: truncation is
		// the honest outcome; never splice another replica's bytes in.
		rt.log.Warn("relay truncated", "replica", addr, "bytes", n, "error", err.Error())
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSONBody(w, http.StatusOK, `{"status":"ok"}`)
}

// handleReadyz: the router is ready while at least one replica is
// unbenched. With every replica benched it answers 503 — new traffic
// would only queue behind a dead backend set.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, addr := range rt.ring.replicas {
		if !rt.benched(addr) {
			writeJSONBody(w, http.StatusOK, `{"status":"ready"}`)
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	writeJSONBody(w, http.StatusServiceUnavailable, `{"status":"all replicas benched"}`)
}

// handleFrontz reports the routing topology: every replica with its
// bench state, plus the ring's vnode count, as one JSON object.
func (rt *Router) handleFrontz(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString(`{"vnodes_per_replica":`)
	b.WriteString(strconv.Itoa(vnodesPerReplica))
	b.WriteString(`,"replicas":[`)
	for i, addr := range rt.ring.replicas {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"addr":%q,"benched":%v}`, addr, rt.benched(addr))
	}
	b.WriteString("]}")
	writeJSONBody(w, http.StatusOK, b.String())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.Render(w)
}

func writeJSONBody(w http.ResponseWriter, status int, body string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	io.WriteString(w, body+"\n")
}

func writeJSONError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"code":%q,"message":%q}}`+"\n", code, msg)
}
