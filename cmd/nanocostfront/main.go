// Command nanocostfront routes requests across a set of nanocostd
// replicas by content hash: the same request body always reaches the
// same replica, so per-replica memo caches and job checkpoints shard by
// content instead of duplicating everywhere. Health is passive — a
// replica whose connection fails is benched for a cooldown and
// idempotent requests retry on the next ring member.
//
// Router endpoints: /healthz (liveness), /readyz (ready while at least
// one replica is unbenched), /frontz (topology and bench state),
// /metrics (scrape), and /debug/trace/{id} (federated span tree joining
// the router's spans with every replica's under one trace id).
// Everything else is proxied with X-Request-Id, X-Trace-Id and
// X-Parent-Span-Id forwarded on each hop.
//
// Example:
//
//	nanocostfront -addr :8080 -replicas 127.0.0.1:8087,127.0.0.1:8088
//	curl -s localhost:8080/frontz
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/front"
	"repro/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		replicas = flag.String("replicas", "", "comma-separated nanocostd replica addresses (host:port), required")
		bench    = flag.Duration("bench", time.Second, "cooldown before a failed replica is retried")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-attempt proxy deadline")
		maxBody  = flag.Int64("max-body", 1<<20, "request body size cap, bytes")
	)
	o := &obs.Flags{}
	o.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := o.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nanocostfront: %v\n", err)
		os.Exit(2)
	}

	logger := o.Logger(os.Stderr)
	err := run(context.Background(), *addr, *replicas, *bench, *timeout, *maxBody, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nanocostfront: %v\n", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM (or ctx cancellation), then drains.
func run(ctx context.Context, addr, replicas string, bench, timeout time.Duration, maxBody int64, logger *slog.Logger) error {
	var list []string
	for _, r := range strings.Split(replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			list = append(list, r)
		}
	}
	if len(list) == 0 {
		return fmt.Errorf("-replicas is required (comma-separated host:port list)")
	}
	rt, err := front.New(front.Config{
		Replicas:     list,
		BenchFor:     bench,
		ProxyTimeout: timeout,
		MaxBodyBytes: maxBody,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	return rt.ListenAndServe(ctx, addr)
}
