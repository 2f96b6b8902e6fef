package main

import (
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mcjob"
)

// simulate runs the experiment at the command's default flags, apart from
// alpha, and returns what it prints to stdout and stderr.
func simulate(t *testing.T, alpha float64, workers, shards int, checkpoint string) (stdout, stderr string) {
	t.Helper()
	var out, progress strings.Builder
	if err := runSharded(&out, &progress, 0.5, 1.0, alpha, 400, 200, 1, workers, shards, checkpoint); err != nil {
		t.Fatal(err)
	}
	return out.String(), progress.String()
}

// withoutShardLine drops the "sharded run:" line, the one report line
// that names the shard count.
func withoutShardLine(s string) string {
	var kept []string
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "sharded run:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

func TestRunUnclustered(t *testing.T) {
	out, _ := simulate(t, 0, 0, 0, "")
	for _, want := range []string{"sharded run: 10 shards, seed 1\n", "/80000 good die)", "poisson"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "negbinomial") {
		t.Errorf("unclustered report lists the negative binomial:\n%s", out)
	}
}

func TestRunClustered(t *testing.T) {
	out, _ := simulate(t, 0.8, 0, 0, "")
	if !strings.Contains(out, "negbinomial(α=0.8)") {
		t.Errorf("clustered report lacks the negative binomial:\n%s", out)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	bad := []struct {
		name                string
		d0, area, alpha     float64
		die, wafers, shards int
	}{
		{"negative defect density", -1, 1, 0, 100, 50, 4},
		{"negative area", 0.5, -1, 0, 100, 50, 4},
		{"zero die per wafer", 0.5, 1, 0, 0, 50, 4},
		{"zero wafers", 0.5, 1, 0, 100, 0, 4},
		{"negative alpha", 0.5, 1, -1, 100, 50, 4},
	}
	for _, c := range bad {
		if err := runSharded(io.Discard, io.Discard, c.d0, c.area, c.alpha, c.die, c.wafers, 1, 0, c.shards, ""); err == nil {
			t.Errorf("accepted %s", c.name)
		}
	}
}

// TestRunShardedRejectsBadInputs requires a rerun over a checkpoint
// directory written under other flags to be refused: resuming it would
// merge shards drawn for another experiment.
func TestRunShardedRejectsBadInputs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := runSharded(io.Discard, io.Discard, 0.5, 1, 0, 400, 100, 1, 0, 4, dir); err != nil {
		t.Fatal(err)
	}
	other := []struct {
		name      string
		d0, alpha float64
		wafers    int
		seed      uint64
		shards    int
	}{
		{"defect density", 0.6, 0, 100, 1, 4},
		{"alpha", 0.5, 0.8, 100, 1, 4},
		{"wafers", 0.5, 0, 120, 1, 4},
		{"seed", 0.5, 0, 100, 2, 4},
		{"shard count", 0.5, 0, 100, 1, 2},
	}
	for _, c := range other {
		err := runSharded(io.Discard, io.Discard, c.d0, 1, c.alpha, 400, c.wafers, c.seed, 0, c.shards, dir)
		if !errors.Is(err, mcjob.ErrCheckpointMismatch) {
			t.Errorf("rerun with another %s: err = %v, want %v", c.name, err, mcjob.ErrCheckpointMismatch)
		}
	}
}

// TestRunSharded requires the same report bytes, apart from the line
// that names the shard count, from one shard on one worker and from
// eight shards on two.
func TestRunSharded(t *testing.T) {
	for _, alpha := range []float64{0, 0.8} {
		one, _ := simulate(t, alpha, 1, 1, "")
		eight, _ := simulate(t, alpha, 2, 8, "")
		if !strings.Contains(one, "sharded run: 1 shards") || !strings.Contains(eight, "sharded run: 8 shards") {
			t.Fatalf("α=%v: shard counts not reported:\n%s\n%s", alpha, one, eight)
		}
		if withoutShardLine(one) != withoutShardLine(eight) {
			t.Errorf("α=%v: report depends on shards or workers:\n%s\n%s", alpha, one, eight)
		}
	}
}

// TestRunShardedCheckpointResume requires a checkpointed run, and a
// rerun that resumes every shard from its log, to print the bytes of a
// run without a checkpoint. The rerun evaluates nothing: its one
// progress line comes from the shard-log replay.
func TestRunShardedCheckpointResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	plain, _ := simulate(t, 0, 2, 8, "")
	first, _ := simulate(t, 0, 2, 8, dir)
	resumed, progress := simulate(t, 0, 2, 8, dir)
	if first != plain || resumed != plain {
		t.Errorf("checkpointed reports differ from the plain run:\nplain:\n%s\nfirst:\n%s\nresumed:\n%s", plain, first, resumed)
	}
	if want := "shard 8/8 done (80000/80000 trials)\n"; progress != want {
		t.Errorf("resumed run's progress = %q, want only %q", progress, want)
	}
}
