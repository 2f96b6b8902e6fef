package mcjob

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointFirstOpenReopen exercises the durability path end to
// end: a first open creates the directory, the manifest (atomic write +
// directory sync) and the job log (O_CREATE + directory sync); a reopen
// verifies the manifest, replays the flushed shard with nothing skipped
// and continues the seq. The directory holds nothing else.
func TestCheckpointFirstOpenReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := manifest{Version: checkpointVersion, Kind: "defect", Trials: 2 * defectChunkTrials,
		ChunkTrials: defectChunkTrials, Shards: 2, Seed: 9}
	p := newPlan(m.Trials, m.ChunkTrials, m.Shards)

	l := newEventLog()
	restored, skipped, err := l.open(dir, m, p)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	if len(restored) != 0 || skipped != 0 {
		t.Fatalf("fresh checkpoint restored %d shards, skipped %d", len(restored), skipped)
	}
	want := []Partial{{Trials: defectChunkTrials, Good: 41, Sum: 1.5}}
	l.Append(EventLeaseAcquired, 1, "tester", "")
	if err := l.flushShard(1, "tester", want); err != nil {
		t.Fatalf("flushShard: %v", err)
	}
	l.close()

	l2 := newEventLog()
	restored2, skipped2, err := l2.open(dir, m, p)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.close()
	if skipped2 != 0 {
		t.Fatalf("reopen skipped %d records, want 0", skipped2)
	}
	got, ok := restored2[1]
	if !ok || len(got) != 1 || got[0] != want[0] {
		t.Fatalf("reopen restored %v, want shard 1 = %v", restored2, want)
	}
	l2.Append(EventSubmitted, -1, "", "")
	evs, _ := l2.Snapshot(0)
	if len(evs) != 3 || evs[1].Type != EventCheckpointFlush || evs[2].Seq != 3 {
		t.Fatalf("reopened timeline = %+v, want lease, flush, then seq 3", evs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != manifestName || entries[1].Name() != shardLogName {
		t.Fatalf("checkpoint dir holds %v, want only %s and %s", entries, manifestName, shardLogName)
	}
}

// TestCheckpointOversizedRecordSkippedNotFatal is the regression test
// for the bufio.Scanner ErrTooLong swallow: an oversized line must be
// skipped and counted, and — critically — every record after it must
// still replay. The old scanner stopped dead at the oversized line, so
// all later shards silently reran.
func TestCheckpointOversizedRecordSkippedNotFatal(t *testing.T) {
	saved := maxLogLineBytes
	maxLogLineBytes = 4096
	defer func() { maxLogLineBytes = saved }()

	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Trials: 4 * defectChunkTrials, Shards: 4, Workers: 1, Seed: 17}
	ref, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg.CheckpointDir = dir
	if _, err := Run(context.Background(), k, cfg); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, shardLogName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Prepend a line well past the record cap (and larger than the
	// reader's internal buffer would hand back in one fragment): with
	// the scanner-based replay this one line dropped all four real
	// records behind it.
	oversized := strings.Repeat("x", maxLogLineBytes+100) + "\n"
	if err := os.WriteFile(logPath, append([]byte(oversized), data...), 0o644); err != nil {
		t.Fatal(err)
	}

	var first Progress
	cfg.OnProgress = func(p Progress) {
		if first.Shards == 0 {
			first = p
		}
	}
	got, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.ShardsResumed != 4 {
		t.Fatalf("resumed %d shards behind the oversized line, want all 4", first.ShardsResumed)
	}
	if first.CheckpointSkipped != 1 {
		t.Fatalf("CheckpointSkipped = %d, want 1 counted oversized record", first.CheckpointSkipped)
	}
	mustEqualResults(t, "oversized-record", ref, got)
}

// TestReplayShardLogCountsEveryDamageKind pins the skip accounting:
// oversized, malformed, out-of-range and wrong-chunk-count lines each
// count once, and a valid shard line surrounded by them still restores.
func TestReplayShardLogCountsEveryDamageKind(t *testing.T) {
	saved := maxLogLineBytes
	maxLogLineBytes = 256
	defer func() { maxLogLineBytes = saved }()

	p := newPlan(4*defectChunkTrials, defectChunkTrials, 4)
	log := strings.Join([]string{
		strings.Repeat("y", 300), // oversized
		"not json",               // malformed
		`{"seq":1,"type":"checkpoint_flushed","shard":99,"chunks":[]}`,                // out of range
		`{"seq":2,"type":"checkpoint_flushed","shard":1,"chunks":[]}`,                 // wrong chunk count (want 1)
		`{"seq":3,"type":"checkpoint_flushed","shard":2,"chunks":[{"t":8192,"g":5}]}`, // valid
	}, "\n") + "\n"
	restored, skipped, _, err := newEventLog().replay(strings.NewReader(log), p)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
	if len(restored) != 1 || restored[2][0].Good != 5 {
		t.Fatalf("restored = %v, want only shard 2", restored)
	}
}

// FuzzReplayJobLog feeds arbitrary bytes to the job-log replay. Whatever
// the input, replay must not panic, every shard it restores must pass the
// plan's geometry check, the replayed timeline's seqs must rise, and the
// next event's seq must be above every replayed one. The seeds are the
// damage kinds the tests above build, around a real log whose shard
// lines are mixed with lease, merge and submitted events.
func FuzzReplayJobLog(f *testing.F) {
	saved := maxLogLineBytes
	maxLogLineBytes = 4096
	defer func() { maxLogLineBytes = saved }()

	k, err := NewDefectKernel(DefectSpec{Lambda: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	cfg := RunConfig{Trials: 4 * defectChunkTrials, Shards: 4, Workers: 1, Seed: 31, CheckpointDir: f.TempDir()}
	if _, err := Run(context.Background(), k, cfg); err != nil {
		f.Fatal(err)
	}
	jobLog, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, shardLogName))
	if err != nil {
		f.Fatal(err)
	}
	lastShard := bytes.LastIndex(jobLog, []byte(`"chunks"`))
	lastShard += bytes.IndexByte(jobLog[lastShard:], '\n') - 20
	for _, seed := range []string{
		string(jobLog),
		string(jobLog[:lastShard]), // torn shard line at EOF
		string(jobLog[:lastShard]) + "\nnot json at all\n{\"shard\":99,\"chunks\":[]}\n",
		strings.Repeat("x", maxLogLineBytes+100) + "\n" + string(jobLog),
		strings.Repeat("y", 300) + "\nnot json\n" +
			`{"seq":1,"type":"checkpoint_flushed","shard":99,"chunks":[]}` + "\n" +
			`{"seq":2,"type":"checkpoint_flushed","shard":1,"chunks":[]}` + "\n" +
			`{"seq":3,"type":"checkpoint_flushed","shard":2,"chunks":[{"t":8192,"g":5}]}` + "\n",
		`{"seq":5,"type":"lease_acquired","shard":0}` + "\n" +
			`{"seq":4,"type":"shard_merged","shard":0}` + "\n" + // seq going back
			`{"seq":5,"type":"shard_merged","shard":0}` + "\n" + // repeated seq
			`{"seq":6,"type":"checkpoint_flushed","shard":0,"chunks":[{"t":8191}]}` + "\n" + // wrong trials
			`{"seq":9223372036854775807,"type":"completed","shard":-1}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	p := newPlan(cfg.Trials, defectChunkTrials, cfg.Shards)
	f.Fuzz(func(t *testing.T, data []byte) {
		l := newEventLog()
		restored, _, valid, err := l.replay(bytes.NewReader(data), p)
		if err != nil {
			t.Fatalf("replay of in-memory input: %v", err)
		}
		if valid > int64(len(data)) || (valid > 0 && data[valid-1] != '\n') {
			t.Fatalf("valid prefix %d does not end a line of the %d-byte input", valid, len(data))
		}
		for s, parts := range restored {
			if err := p.checkShard(s, parts); err != nil {
				t.Fatalf("restored shard %d fails the plan's geometry: %v", s, err)
			}
		}
		evs, _ := l.Snapshot(0)
		l.Append(EventSubmitted, -1, "", "")
		next, _ := l.Snapshot(l.seq - 1)
		for i, ev := range evs {
			if i > 0 && ev.Seq <= evs[i-1].Seq {
				t.Fatalf("replayed seq %d follows %d", ev.Seq, evs[i-1].Seq)
			}
			if next[0].Seq <= ev.Seq {
				t.Fatalf("next seq %d is not above replayed seq %d", next[0].Seq, ev.Seq)
			}
		}
	})
}
