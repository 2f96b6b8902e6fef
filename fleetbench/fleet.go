package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one fleet process: a nanocostd replica or the router, started
// from the binaries under test with its log written to a file, so that
// reading logs costs the benchmark nothing while it measures.
type proc struct {
	name   string
	cmd    *exec.Cmd
	log    string
	addr   string
	exited chan struct{}
}

// listenRE matches the line both daemons log once their listener is
// bound, which carries the ephemeral port.
var listenRE = regexp.MustCompile(`msg="(?:nanocostd|nanocostfront) listening" addr=(\S+)`)

// startProc launches bin with args and waits until it logs its bound
// address.
func startProc(ctx context.Context, b *bench, bin, name string, args ...string) (*proc, error) {
	logPath := filepath.Join(b.runDir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = f, f
	err = cmd.Start()
	f.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through the log
		close(p.exited)
	}()
	if err := p.waitAddr(ctx, 20*time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) waitAddr(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(p.log); err == nil {
			if m := listenRE.FindSubmatch(data); m != nil {
				p.addr = string(m[1])
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, tail(p.log))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("%s logged no listen address within %v:\n%s", p.name, limit, tail(p.log))
}

// waitReady polls addr's /readyz until it answers 200.
func waitReady(ctx context.Context, c *http.Client, addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("%s never answered /readyz 200", addr)
}

// hwmMB returns the process's peak resident set (VmHWM) in MB.
func (p *proc) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s VmHWM: %w", p.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// stop asks the process to drain and exit, and kills it if it has not
// exited within 15 s. It returns once the process is gone.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func stopAll(ps []*proc) {
	for _, p := range ps {
		if p != nil {
			p.stop()
		}
	}
}

// sumHWM sums VmHWM over ps.
func sumHWM(ps []*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		mb, err := p.hwmMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// tail returns the last lines of a log for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// newClient returns a client that holds at most conns connections per
// target, so the benchmark never opens more than it counts.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// scrape fetches addr's /metrics and parses it.
func scrape(c *http.Client, addr string) (exposition, error) {
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", addr, resp.StatusCode)
	}
	return parseExposition(string(data))
}
