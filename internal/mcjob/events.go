package mcjob

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Event is one structured entry in a job's lifecycle timeline: what
// happened, to which shard (-1 when the event is not shard-scoped), on
// whose behalf. The timeline is what makes a kill -9/resume run
// explainable event by event — which worker held which lease, when it
// expired, who re-ran the shard.
type Event struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Type   string    `json:"type"`
	Shard  int       `json:"shard"`
	Owner  string    `json:"owner,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Event types appended by the coordinator and the serving layer.
const (
	EventSubmitted        = "submitted"
	EventLeaseAcquired    = "lease_acquired"
	EventLeaseRenewed     = "lease_renewed"
	EventLeaseExpired     = "lease_expired"
	EventLeaseReclaimed   = "lease_reclaimed"
	EventPartialAccepted  = "partial_accepted"
	EventPartialDuplicate = "partial_duplicate"
	EventPartialRejected  = "partial_rejected"
	EventShardMerged      = "shard_merged"
	EventCheckpointFlush  = "checkpoint_flushed"
	EventCheckpointResume = "checkpoint_resumed"
	EventCompleted        = "completed"
	EventCancelled        = "cancelled"
	EventFailed           = "failed"
)

// defaultEventCapacity bounds a job's in-memory timeline. Old events
// beyond the cap are dropped oldest-first and counted, never silently.
const defaultEventCapacity = 1024

// logLine is one line of the job log: an Event with its usual keys and,
// on the checkpoint_flushed line that makes a shard durable, the shard's
// per-chunk partials as a trailing "chunks" key. The ring keeps only the
// Event, so the timeline served to clients never carries chunks.
type logLine struct {
	Event
	Chunks []Partial `json:"chunks,omitempty"`
}

// EventLog is a job's timeline: a bounded, concurrency-safe ring of
// lifecycle events and, when the run checkpoints, the job log that every
// event is written to (see checkpoint.go). Each Coordinator owns one.
//
// Lock order: the Coordinator appends while holding its merge lock, so
// Coordinator.mu is taken before EventLog.mu, never after. The fsync of
// a shard line (flushShard) runs with neither held.
type EventLog struct {
	mu      sync.Mutex
	seq     int64
	events  []Event
	dropped int64
	changed chan struct{}
	// f is the job log, nil when the run does not checkpoint. It is set
	// before the log is shared and never reassigned, so flushShard reads
	// it without mu. Lines are written under mu: they reach the file in
	// seq order.
	f *os.File
	// ferr is the first failed write (or the close). Later lines are not
	// written, since replay would read a torn line and the one after it as
	// one bad line, and the next shard flush returns it, so no shard is
	// acknowledged that the log cannot replay.
	ferr error
}

func newEventLog() *EventLog {
	return &EventLog{changed: make(chan struct{})}
}

// Append records one event. Shard is -1 for events that are not about a
// specific shard. With a job log attached the line is written but not
// fsynced; it becomes durable at the next shard flush.
func (e *EventLog) Append(typ string, shard int, owner, detail string) {
	e.mu.Lock()
	e.appendLocked(typ, shard, owner, detail, nil)
	e.mu.Unlock()
}

// flushShard appends the checkpoint_flushed line that carries shard's
// per-chunk partials and fsyncs the job log, so once it returns nil the
// shard survives a kill -9, and so does every line written before it.
// The fsync runs after mu is released: no other append waits for the
// disk. Without a job log it does nothing.
func (e *EventLog) flushShard(shard int, owner string, parts []Partial) error {
	if e.f == nil {
		return nil
	}
	e.mu.Lock()
	e.appendLocked(EventCheckpointFlush, shard, owner, "", parts)
	err := e.ferr
	e.mu.Unlock()
	if err != nil {
		return fmt.Errorf("mcjob: append shard %d: %w", shard, err)
	}
	if err := e.f.Sync(); err != nil {
		return fmt.Errorf("mcjob: sync job log: %w", err)
	}
	return nil
}

// appendLocked assigns the next seq, writes the event's line to the job
// log (chunks only on a shard's flush line), adds the event to the ring
// and wakes the streamers. Callers hold e.mu.
func (e *EventLog) appendLocked(typ string, shard int, owner, detail string, chunks []Partial) {
	e.seq++
	ev := Event{Seq: e.seq, Time: time.Now().UTC(), Type: typ, Shard: shard, Owner: owner, Detail: detail}
	if e.f != nil && e.ferr == nil {
		line, err := json.Marshal(logLine{Event: ev, Chunks: chunks})
		if err == nil {
			_, err = e.f.Write(append(line, '\n'))
		}
		e.ferr = err
	}
	e.push(ev)
	close(e.changed)
	e.changed = make(chan struct{})
}

// push adds ev to the ring, dropping and counting the oldest event when
// the ring is full.
func (e *EventLog) push(ev Event) {
	if len(e.events) >= defaultEventCapacity {
		n := copy(e.events, e.events[1:])
		e.events = e.events[:n]
		e.dropped++
	}
	e.events = append(e.events, ev)
}

// Snapshot returns the retained events with Seq > after (0 returns
// everything retained) plus how many older events the ring has dropped.
func (e *EventLog) Snapshot(after int64) ([]Event, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := 0
	for i < len(e.events) && e.events[i].Seq <= after {
		i++
	}
	out := make([]Event, len(e.events)-i)
	copy(out, e.events[i:])
	return out, e.dropped
}

// Changed returns a channel closed on the next append, for live
// streamers.
func (e *EventLog) Changed() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.changed
}

// close releases the job log. Later events reach only the ring, and a
// later shard flush fails. The Close error is dropped: every shard line
// was fsynced before it was acknowledged, and the event lines after the
// last fsync are allowed to be lost.
func (e *EventLog) close() {
	if e.f == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.f.Close()
	e.ferr = os.ErrClosed
}
