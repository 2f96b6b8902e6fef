package mcjob

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// checkpointVersion gates the on-disk layout; a bump invalidates old
// directories instead of misreading them. Version 2 is the one job log:
// shards ride on their checkpoint_flushed lines among the other events.
const checkpointVersion = 2

// ErrCheckpointMismatch reports a checkpoint directory written by a
// different job spec (or an older layout): resuming it would merge
// tallies drawn from other streams, so the run refuses instead.
var ErrCheckpointMismatch = errors.New("mcjob: checkpoint belongs to a different job spec")

// manifest pins everything that determines the draw streams and chunk
// geometry. Two runs may share a checkpoint directory only if all of it
// matches.
type manifest struct {
	Version     int    `json:"version"`
	Kind        string `json:"kind"`
	Trials      int64  `json:"trials"`
	ChunkTrials int64  `json:"chunk_trials"`
	Shards      int    `json:"shards"`
	Seed        uint64 `json:"seed"`
	SpecHash    string `json:"spec_hash,omitempty"`
}

// maxLogLineBytes bounds one replayed job-log line. A line past the cap
// is skipped and counted — the following lines still replay, unlike the
// bufio.Scanner ErrTooLong behavior this replaced, which silently stopped
// the scan and dropped every later shard. A var so the oversize path is
// testable without writing a quarter-gigabyte fixture.
var maxLogLineBytes = 256 << 20

const (
	manifestName = "MANIFEST.json"
	shardLogName = "shards.ndjson"
)

// open makes dir the run's checkpoint and attaches its job log to e. The
// directory holds MANIFEST.json, written once atomically (tmp+rename,
// then a directory fsync so the entry survives a crash) and verified on
// every later open, and shards.ndjson, the append-only job log: one Event
// per line, of which only a shard's checkpoint_flushed line is fsynced
// (flushShard), making every line before it durable too. The log is
// replayed into e and reopened for appending; it returns the restored
// shards and how many bad lines replay skipped.
func (e *EventLog) open(dir string, m manifest, p plan) (map[int][]Partial, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("mcjob: checkpoint dir: %w", err)
	}
	mPath := filepath.Join(dir, manifestName)
	existing, err := os.ReadFile(mPath)
	switch {
	case err == nil:
		var got manifest
		if jsonErr := json.Unmarshal(existing, &got); jsonErr != nil || got != m {
			return nil, 0, fmt.Errorf("%w: %s holds %s, this run needs %s",
				ErrCheckpointMismatch, mPath, describeManifest(existing, got), describeManifest(nil, m))
		}
	case os.IsNotExist(err):
		if err := writeFileAtomic(mPath, mustJSON(m)); err != nil {
			return nil, 0, fmt.Errorf("mcjob: write manifest: %w", err)
		}
	default:
		return nil, 0, fmt.Errorf("mcjob: read manifest: %w", err)
	}

	f, err := os.OpenFile(filepath.Join(dir, shardLogName), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("mcjob: open job log: %w", err)
	}
	restored, skipped, valid, err := e.replay(f, p)
	if err == nil {
		// Cut a torn last line (a crash mid-write) off, so the next line
		// starts on a line of its own instead of being read with it.
		err = f.Truncate(valid)
	}
	if err == nil {
		// The log file may have just been created: without a directory sync
		// its entry is not durable, and a crash could lose the whole file
		// along with its fsynced shards. One sync on open covers every
		// later append.
		err = syncDir(dir)
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("mcjob: job log: %w", err)
	}
	e.f = f
	return restored, skipped, nil
}

// replay reads a job log into e in one pass: every good line's event
// enters the ring, e's seq continues from the last one, and each
// checkpoint_flushed line that passes the plan's geometry check restores
// its shard (a later line for the same shard replaces an earlier one;
// racing duplicates carry identical partials). A line is bad, and is
// skipped and counted, when it is torn (no newline at EOF), oversized,
// malformed, not an event, not above the previous seq (or so large that
// no seq can follow it), or a shard line inconsistent with the plan;
// such shards simply rerun. valid is the
// length of the log up to the end of its last complete line.
//
// It reads with a bufio.Reader line loop rather than a bufio.Scanner: a
// scanner hitting its buffer cap stops with ErrTooLong, and swallowing
// that dropped every line after the first oversized one with no signal.
func (e *EventLog) replay(r io.Reader, p plan) (restored map[int][]Partial, skipped int, valid int64, err error) {
	restored = map[int][]Partial{}
	br := bufio.NewReaderSize(r, 1<<20)
	var line []byte
	for {
		line = line[:0]
		n, tooLong := 0, false
		var readErr error
		for {
			frag, err := br.ReadSlice('\n')
			n += len(frag)
			if len(line)+len(frag) > maxLogLineBytes {
				tooLong = true
				line = line[:0] // discard; keep consuming to the newline
			} else {
				line = append(line, frag...)
			}
			if err == nil || !errors.Is(err, bufio.ErrBufferFull) {
				readErr = err
				break
			}
		}
		if readErr != nil && !errors.Is(readErr, io.EOF) {
			return nil, 0, 0, readErr
		}
		if readErr == nil {
			valid += int64(n)
		}
		if n > 0 && (tooLong || readErr != nil || !e.replayLine(line, p, restored)) {
			skipped++
		}
		if readErr != nil {
			return restored, skipped, valid, nil
		}
	}
}

// replayLine applies one complete line and reports whether it was good.
// A decoded event moves the seq forward even when its shard is refused,
// so no later line reuses a seq the file already holds.
func (e *EventLog) replayLine(line []byte, p plan, restored map[int][]Partial) bool {
	var ln logLine
	if json.Unmarshal(line, &ln) != nil || ln.Type == "" || ln.Seq <= e.seq || ln.Seq == math.MaxInt64 {
		return false
	}
	e.seq = ln.Seq
	if ln.Type == EventCheckpointFlush {
		if p.checkShard(ln.Shard, ln.Chunks) != nil {
			return false
		}
		restored[ln.Shard] = ln.Chunks
	}
	e.push(ln.Event)
	return true
}

// writeFileAtomic writes via a temp file, fsync, rename and a sync of
// the parent directory, so a crashed writer never leaves a half-written
// manifest for the next run to misparse — and a crash right after the
// rename cannot lose the renamed entry either (the rename itself lives
// in the directory, which is only durable once the directory is synced).
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-manifest-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making its entries (files created or
// renamed into it) durable. File-content fsyncs alone do not cover the
// directory entry that names the file.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// describeManifest renders a manifest for the mismatch error: the raw
// bytes if they did not even parse, else the structured summary.
func describeManifest(raw []byte, m manifest) string {
	if m == (manifest{}) && len(raw) > 0 {
		if len(raw) > 120 {
			raw = raw[:120]
		}
		return fmt.Sprintf("unparseable %q", raw)
	}
	return fmt.Sprintf("{kind=%s trials=%d chunk=%d shards=%d seed=%d spec=%s}",
		m.Kind, m.Trials, m.ChunkTrials, m.Shards, m.Seed, m.SpecHash)
}
