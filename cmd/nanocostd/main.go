// Command nanocostd serves the paper's cost models (eq (1)–(7)) over
// HTTP/JSON. It runs until interrupted (SIGINT/SIGTERM), then drains
// in-flight requests before exiting.
//
// Routes: POST /v1/cost, /v1/designcost, /v1/generalized, /v1/sweep,
// /v1/batch, /v1/jobs; GET /v1/figures/{1..4}, /v1/jobs/{id},
// /v1/jobs/{id}/result, /healthz, /metrics,
// /debug/trace/{id}. Sweeps and figures stream NDJSON under
// "Accept: application/x-ndjson"; figure responses carry strong ETags
// for If-None-Match revalidation. Every response carries an
// X-Request-Id and (for model routes) an X-Trace-Id whose span tree is
// retrievable at /debug/trace/{id}.
//
// With -debug-addr the daemon additionally serves net/http/pprof on a
// separate listener, kept off the public address so profiling endpoints
// are an explicit operator opt-in.
//
// Example:
//
//	nanocostd -addr :8087 -timeout 15s -log-format json
//	nanocostd -addr :8087 -debug-addr 127.0.0.1:6060
//	curl -s localhost:8087/healthz
//	curl -s -X POST localhost:8087/v1/cost -d '{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":5000}'
//	curl -s -X POST localhost:8087/v1/batch -d '{"items":[{"kind":"designcost","body":{"transistors":10e6,"sd":300}}]}'
//	curl -sN -H 'Accept: application/x-ndjson' -X POST localhost:8087/v1/sweep \
//	  -d '{"scenario":{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":5000},"variable":"sd","lo":200,"hi":2000,"points":256}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8087", "listen address")
		debugAddr = flag.String("debug-addr", "", "optional separate listen address for net/http/pprof (disabled when empty)")
		timeout   = flag.Duration("timeout", 15*time.Second, "per-request evaluation deadline")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		inflight  = flag.Int("max-inflight", 0, "concurrent model requests before 429 (0 = 4 × GOMAXPROCS)")
		maxBody   = flag.Int64("max-body", 1<<20, "request body size cap, bytes")
		workers   = flag.Int("workers", 0, "worker goroutines for sweeps (0 = all cores); results are identical for any value")
		jobDir    = flag.String("job-dir", "", "directory for simulation-job checkpoints (empty = checkpointing disabled)")
		maxJobs   = flag.Int("max-jobs", 0, "concurrent simulation jobs before 429 (0 = 2)")
		peers     = flag.String("peers", "", "comma-separated peer replicas (host:port) whose distributed jobs this daemon pulls shards from; implies -distribute")
		distrib   = flag.Bool("distribute", false, "open jobs to peer replicas, which pull their shards over HTTP (implied by -peers)")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "distributed shard-lease lifetime; a dead worker's shards re-run one TTL after its last renewal")
		workerID  = flag.String("worker-id", "", "name of this replica in distributed-job lease tables (default host:pid)")
		jobWrk    = flag.Int("job-workers", 0, "local evaluation goroutines for jobs (0 = all cores, -1 = coordinate only, which needs -distribute or -peers)")
	)
	o := &obs.Flags{}
	o.RegisterFlags(flag.CommandLine)
	prof := profiling.Register()
	flag.Parse()
	cliutil.Validate(prof, o)
	parallel.SetDefaultWorkers(*workers)

	logger := o.Logger(os.Stderr)

	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "nanocostd: %v\n", err)
		os.Exit(1)
	}
	ctx := o.StartRoot(context.Background(), "nanocostd.run")
	err := run(ctx, serve.Config{
		Addr:            *addr,
		RequestTimeout:  *timeout,
		ShutdownTimeout: *drain,
		MaxInFlight:     *inflight,
		MaxBodyBytes:    *maxBody,
		Logger:          logger,
		JobDir:          *jobDir,
		MaxJobs:         *maxJobs,
		Peers:           splitPeers(*peers),
		DistributeJobs:  *distrib,
		LeaseTTL:        *leaseTTL,
		WorkerID:        *workerID,
		JobWorkers:      *jobWrk,
	}, *debugAddr, logger)
	o.Finish(os.Stderr)
	if perr := prof.Stop(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nanocostd: %v\n", err)
		os.Exit(1)
	}
}

// splitPeers parses the -peers list: comma-separated host:port entries,
// empties dropped.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// run serves until SIGINT/SIGTERM (or ctx cancellation), then lets the
// server drain. A non-empty debugAddr additionally serves pprof on its
// own listener for the daemon's lifetime.
func run(ctx context.Context, cfg serve.Config, debugAddr string, logger *slog.Logger) error {
	cfg.Logger = logger
	switch {
	case cfg.JobWorkers < -1:
		return fmt.Errorf("nanocostd: -job-workers must be -1, 0 or positive, got %d", cfg.JobWorkers)
	case cfg.JobWorkers == -1 && !cfg.DistributeJobs && len(cfg.Peers) == 0:
		// Nothing could lease the shards: every job would run forever.
		return fmt.Errorf("nanocostd: -job-workers -1 evaluates no shard locally, so it needs -distribute or -peers")
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	if debugAddr != "" {
		ln, err := startDebugListener(debugAddr, logger)
		if err != nil {
			return err
		}
		defer ln.Close()
	}

	return serve.NewServer(cfg).ListenAndServe(ctx)
}

// startDebugListener binds addr and serves the net/http/pprof handlers on
// it in the background. The handlers are mounted on a private mux — never
// the default one — so enabling profiling cannot leak pprof onto the
// service address, and the service mux stays free of debug routes.
func startDebugListener(addr string, logger *slog.Logger) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nanocostd: debug listen %s: %w", addr, err)
	}
	logger.Info("nanocostd debug listening", "addr", ln.Addr().String())
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		// Serve returns when the listener closes at shutdown; pprof has no
		// in-flight state worth draining.
		_ = srv.Serve(ln)
	}()
	return ln, nil
}
