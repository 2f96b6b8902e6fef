package front

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// traceRingCapacity is how many completed traces the router retains for
// GET /debug/trace/{id}. Matches nanocostd's ring so a federated lookup
// does not outlive one side's record much sooner than the other's.
const traceRingCapacity = 128

// statusRecorder captures the status and byte count of one response for
// the access log.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	bytes       int64
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.wroteHeader {
		r.status = status
		r.wroteHeader = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wroteHeader {
		r.status = http.StatusOK
		r.wroteHeader = true
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush passes through so proxied NDJSON streams keep flowing chunk by
// chunk instead of buffering behind the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// observe is the router's outermost middleware: it assigns or echoes
// X-Request-Id (and writes it back onto the inbound header set, so the
// proxy's header clone forwards the same ID to the replica — the join
// key between the two processes' access logs), opens a front.request
// root span honoring a sanitized incoming X-Trace-Id/X-Parent-Span-Id,
// and emits exactly one structured access-log line per request.
func (rt *Router) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}

		reqID := obs.SanitizeID(r.Header.Get("X-Request-Id"))
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		r.Header.Set("X-Request-Id", reqID)
		rec.Header().Set("X-Request-Id", reqID)

		var span *obs.Span
		if shouldTrace(r.URL.Path) {
			var ctx context.Context
			ctx, span = rt.tracer.StartRootWithParent(r.Context(),
				obs.SanitizeID(r.Header.Get("X-Trace-Id")),
				obs.SanitizeID(r.Header.Get("X-Parent-Span-Id")), "front.request")
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			rec.Header().Set("X-Trace-Id", span.TraceID())
			r = r.WithContext(ctx)
		}

		next.ServeHTTP(rec, r)

		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		if span != nil {
			span.SetAttr("status", strconv.Itoa(status))
			span.End()
		}

		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
			slog.String("request_id", reqID),
		}
		if span != nil {
			attrs = append(attrs, slog.String("trace_id", span.TraceID()))
		}
		rt.log.LogAttrs(r.Context(), level, "request", attrs...)
	})
}

// shouldTrace reports whether a path gets a front.request root span. The
// router's own observability endpoints are exempt — scrapes, topology
// polls and trace lookups must not fill the trace ring with themselves.
func shouldTrace(path string) bool {
	return path != "/healthz" && path != "/readyz" && path != "/metrics" &&
		path != "/frontz" && !strings.HasPrefix(path, "/debug/")
}
