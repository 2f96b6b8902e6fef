package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in      string
		want    slog.Level
		wantErr bool
	}{
		{"debug", slog.LevelDebug, false},
		{"info", slog.LevelInfo, false},
		{"", slog.LevelInfo, false},
		{"WARN", slog.LevelWarn, false},
		{"warning", slog.LevelWarn, false},
		{" error ", slog.LevelError, false},
		{"verbose", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseLevel(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseLevel(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, slog.LevelInfo, "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("request", "route", "/v1/cost", "status", 200)
	if out := buf.String(); !strings.Contains(out, "route=/v1/cost") || !strings.Contains(out, "status=200") {
		t.Errorf("text handler output unexpected: %q", out)
	}

	buf.Reset()
	log, err = NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("request", "route", "/v1/cost", "status", 200)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json handler emitted invalid JSON %q: %v", buf.String(), err)
	}
	if rec["route"] != "/v1/cost" || rec["msg"] != "request" {
		t.Errorf("json record = %v", rec)
	}

	// Level filtering applies identically.
	buf.Reset()
	log, _ = NewLogger(&buf, slog.LevelWarn, "text")
	log.Info("dropped")
	if buf.Len() != 0 {
		t.Errorf("info line not filtered at warn level: %q", buf.String())
	}

	if _, err := NewLogger(io.Discard, slog.LevelInfo, "xml"); err == nil {
		t.Error("NewLogger accepted unknown format xml")
	}
}

func TestFlagsRegisterValidate(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.RegisterFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json", "-trace"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if !f.Logger(io.Discard).Enabled(context.Background(), slog.LevelDebug) || !f.Trace {
		t.Errorf("flags = %+v", f)
	}

	for _, args := range [][]string{
		{"-log-level", "loud"},
		{"-log-format", "yaml"},
	} {
		var bad Flags
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bad.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %v", args)
		}
	}
}

func TestFlagsTraceTree(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.RegisterFlags(fs)
	if err := fs.Parse([]string{"-trace"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := f.StartRoot(context.Background(), "nanocost.run")
	_, sp := StartSpan(ctx, "core.montecarlo")
	sp.End()
	var buf bytes.Buffer
	f.Finish(&buf)
	out := buf.String()
	if !strings.Contains(out, "nanocost.run") || !strings.Contains(out, "core.montecarlo") {
		t.Errorf("-trace tree missing stages:\n%s", out)
	}

	// Without -trace, StartRoot must pass the context through untouched
	// and Finish must stay silent.
	var off Flags
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	off.RegisterFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	ctx2 := off.StartRoot(context.Background(), "run")
	if SpanFromContext(ctx2) != nil {
		t.Error("StartRoot without -trace attached a span")
	}
	buf.Reset()
	off.Finish(&buf)
	if buf.Len() != 0 {
		t.Errorf("Finish without -trace wrote %q", buf.String())
	}
}
