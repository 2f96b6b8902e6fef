package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps the CLI's -log-level spelling onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a slog.Logger with the shared handler configuration:
// format is "text" (the human-readable key=value default) or "json"
// (one object per line for log shippers). Both carry the same keys, so
// the access-log schema is identical either way.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
}

// Flags is the observability surface every binary shares:
// -log-level, -log-format and -trace. Register it on a FlagSet, validate
// after parsing, then build the logger and (for the CLIs) wrap the run
// in StartRoot/Finish to get the per-stage timing tree.
type Flags struct {
	LogLevel  string
	LogFormat string
	Trace     bool

	level  slog.Level
	tracer *Tracer
	root   *Span
}

// RegisterFlags installs the shared flags on fs.
func (f *Flags) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug|info|warn|error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "log format: text|json")
	fs.BoolVar(&f.Trace, "trace", false, "trace the run and print a per-stage timing tree")
}

// Validate checks the flag values, caching the parsed level.
func (f *Flags) Validate() error {
	level, err := ParseLevel(f.LogLevel)
	if err != nil {
		return err
	}
	f.level = level
	if _, err := NewLogger(io.Discard, level, f.LogFormat); err != nil {
		return err
	}
	return nil
}

// Logger builds the configured logger writing to w. Call Validate first.
func (f *Flags) Logger(w io.Writer) *slog.Logger {
	log, err := NewLogger(w, f.level, f.LogFormat)
	if err != nil {
		// Validate accepted the format, so this cannot fail; keep the
		// binary running on the default rather than panicking.
		log = slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: f.level}))
	}
	return log
}

// StartRoot begins a CLI run's trace when -trace is set, returning the
// derived context. Without -trace it returns ctx unchanged and the later
// Finish is a no-op.
func (f *Flags) StartRoot(ctx context.Context, name string) context.Context {
	if !f.Trace {
		return ctx
	}
	f.tracer = NewTracer(1, nil)
	ctx, f.root = f.tracer.StartRoot(ctx, "", name)
	return ctx
}

// Finish ends the run's root span and prints the timing tree to w.
func (f *Flags) Finish(w io.Writer) {
	if f.root == nil {
		return
	}
	traceID := f.root.TraceID()
	f.root.End()
	f.root = nil
	if trace, ok := f.tracer.Lookup(traceID); ok {
		fmt.Fprint(w, trace.Format())
	}
}
