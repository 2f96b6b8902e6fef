package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// testConfig is the scalar config the old run signature took, as a
// serve.Config.
func testConfig(addr string) serve.Config {
	return serve.Config{
		Addr:            addr,
		RequestTimeout:  time.Second,
		ShutdownTimeout: time.Second,
		MaxInFlight:     4,
		MaxBodyBytes:    1 << 20,
	}
}

// syncBuffer is a goroutine-safe log sink: the daemon writes while the
// test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenAddrRE = regexp.MustCompile(`nanocostd listening"? addr=(\S+)`)

// startRun starts the daemon's real entry point in the background and
// returns its bound address (read from its own listening log line, which
// is written after the signal handler is installed) and its exit channel.
func startRun(t *testing.T, ctx context.Context, cfg serve.Config) (string, <-chan error) {
	t.Helper()
	logs := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(logs, nil))
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, "", "", logger) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenAddrRE.FindStringSubmatch(logs.String()); m != nil {
			return m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("run exited during start-up: %v\n%s", err, logs)
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatalf("no listening log line within 10s:\n%s", logs)
	return "", nil
}

// drainJobSpec is a checkpointed job long enough (64 shards of 24
// chunks) to still be running when SIGTERM arrives after its second
// shard, and short enough to finish a resume within a unit test.
const drainJobSpec = `{"kind":"defect","trials":12582912,"shards":64,"seed":5,"checkpoint":true,"defect":{"lambda":0.9}}`

// jobStatus is the part of GET /v1/jobs/{id} the drain tests read.
type jobStatus struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	ShardsDone    int    `json:"shards_done"`
	ShardsResumed int    `json:"shards_resumed"`
	Error         string `json:"error"`
}

func submitJob(t *testing.T, base, spec string) jobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%v): %+v", resp.StatusCode, err, st)
	}
	return st
}

// pollJob polls the job's status until until(status) holds.
func pollJob(t *testing.T, base, id string, until func(jobStatus) bool) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if until(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s: condition not reached within 60s", id)
	return jobStatus{}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%v): %s", url, resp.StatusCode, err, body)
	}
	return body
}

// referenceResult runs drainJobSpec uninterrupted on an in-process
// server and returns its result bytes.
func referenceResult(t *testing.T) []byte {
	t.Helper()
	srv := serve.NewServer(serve.Config{JobDir: t.TempDir(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	id := submitJob(t, ts.URL, drainJobSpec).ID
	if st := pollJob(t, ts.URL, id, func(st jobStatus) bool { return st.State != "running" }); st.State != "done" {
		t.Fatalf("reference job ended %q: %s", st.State, st.Error)
	}
	return getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
}

// TestRunServesAndDrainsOnSIGTERM drives the real entry point: start the
// daemon on an ephemeral port, deliver SIGTERM to the process, and require
// a clean (nil-error) exit within the drain window, ShutdownTimeout. A job
// runner that ignored the cancellation would hold the job manager's drain
// for that whole window, so it fails the case too. In the job cases a
// checkpointed job is mid-run at SIGTERM, on a plain replica and on a
// -distribute coordinator; a restarted daemon given the same spec must
// resume it from the shard log to the bytes of an uninterrupted run.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	var ref []byte
	for _, tc := range []struct {
		name       string
		job        bool
		distribute bool
	}{
		{"idle", false, false},
		{"checkpointed job", true, false},
		{"checkpointed job distributed", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.job && ref == nil {
				ref = referenceResult(t)
			}
			cfg := testConfig("127.0.0.1:0")
			cfg.JobDir = t.TempDir()
			cfg.DistributeJobs = tc.distribute
			addr, done := startRun(t, context.Background(), cfg)
			base := "http://" + addr

			var id string
			if tc.job {
				id = submitJob(t, base, drainJobSpec).ID
				st := pollJob(t, base, id, func(st jobStatus) bool { return st.State != "running" || st.ShardsDone >= 2 })
				if st.State != "running" {
					t.Fatalf("job ended %q before SIGTERM: %s", st.State, st.Error)
				}
			}

			if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			window := cfg.ShutdownTimeout
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run returned %v, want nil after SIGTERM drain", err)
				}
			case <-time.After(window):
				t.Fatalf("run did not exit within the %v drain window after SIGTERM", window)
			}
			if !tc.job {
				return
			}

			ctx, cancel := context.WithCancel(context.Background())
			addr, done = startRun(t, ctx, cfg)
			base = "http://" + addr
			if got := submitJob(t, base, drainJobSpec).ID; got != id {
				t.Fatalf("resubmitted job id %s, want %s", got, id)
			}
			st := pollJob(t, base, id, func(st jobStatus) bool { return st.State != "running" })
			if st.State != "done" {
				t.Fatalf("resumed job ended %q: %s", st.State, st.Error)
			}
			if st.ShardsResumed < 2 || st.ShardsResumed >= 64 {
				t.Fatalf("resumed %d shards, want the ones merged before SIGTERM (>= 2, < 64)", st.ShardsResumed)
			}
			if got := getBody(t, base+"/v1/jobs/"+id+"/result"); !bytes.Equal(got, ref) {
				t.Fatalf("resumed result differs from an uninterrupted run:\n%s\n%s", got, ref)
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("restarted run returned %v", err)
			}
		})
	}
}

// TestRunWritesMemoSnapshotOnCleanDrain: with -memo-snapshot set, a
// clean shutdown must leave a loadable snapshot file behind, and a
// subsequent start must read it without complaint.
func TestRunWritesMemoSnapshotOnCleanDrain(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	snap := filepath.Join(t.TempDir(), "memo.snapshot")
	for i := 0; i < 2; i++ { // second pass exercises the load path
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, testConfig("127.0.0.1:0"), "", snap, logger)
		}()
		time.Sleep(100 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("pass %d: run returned %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pass %d: run did not exit", i)
		}
		if _, err := os.Stat(snap); err != nil {
			t.Fatalf("pass %d: no snapshot after clean drain: %v", i, err)
		}
	}
}

// TestRunRejectsBadAddr: an unbindable address is a startup error, not a
// hang.
func TestRunRejectsBadAddr(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := run(context.Background(), testConfig("256.0.0.1:99999"), "", "", logger); err == nil {
		t.Fatal("accepted an unbindable address")
	}
}

// TestRunRejectsBadJobWorkers: a -job-workers value below -1, or -1 on
// a replica no peer can lease shards from, is a startup error — never a
// daemon whose jobs cannot finish. The context is already cancelled, so
// a missing check shows as a nil return, not a hang.
func TestRunRejectsBadJobWorkers(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name       string
		workers    int
		distribute bool
	}{
		{"below -1", -2, true},
		{"-1 without -distribute or -peers", -1, false},
	} {
		cfg := testConfig("127.0.0.1:0")
		cfg.JobWorkers = tc.workers
		cfg.DistributeJobs = tc.distribute
		if err := run(ctx, cfg, "", "", logger); err == nil {
			t.Fatalf("%s: accepted -job-workers %d", tc.name, tc.workers)
		}
	}
}

// TestRunRejectsBadDebugAddr: an unbindable -debug-addr fails startup the
// same way the main address does — never a silently missing profiler.
func TestRunRejectsBadDebugAddr(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := run(context.Background(), testConfig("127.0.0.1:0"), "256.0.0.1:99999", "", logger); err == nil {
		t.Fatal("accepted an unbindable debug address")
	}
}

// TestDebugListenerServesPprof: the opt-in listener answers the pprof
// index and a cheap profile on its own mux.
func TestDebugListenerServesPprof(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ln, err := startDebugListener("127.0.0.1:0", logger)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	base := fmt.Sprintf("http://%s", ln.Addr().String())
	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s returned an empty body", path)
		}
	}
}
