package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     string `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span list; later spans are counted as
// dropped rather than grown without limit.
const maxSpans = 500_000

// recorder keeps spans in memory until the run ends. A disabled recorder
// records nothing, so untraced runs pay one branch per call site.
type recorder struct {
	on      bool
	t0      time.Time
	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// newID reserves a span id, so a parent can be named before it ends.
func (r *recorder) newID() int64 {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span under a reserved id (0 reserves one).
func (r *recorder) add(id, parent int64, name, req string, start, end time.Time) int64 {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds()})
	return id
}

// selfStat is the total self time of every span with one name.
type selfStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	WallMS float64 `json:"wall_ms"`
}

// selfTimes computes, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
// Children may overlap each other, so their union is subtracted, clipped
// to the parent's interval.
func selfTimes(spans []span) []selfStat {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	byName := map[string]*selfStat{}
	for _, s := range spans {
		covered := coveredNS(s.StartNS, s.EndNS, children[s.ID])
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.WallMS += float64(s.EndNS-s.StartNS) / 1e6
		st.SelfMS += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNS returns how much of [lo, hi) the union of ivs covers.
func coveredNS(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as NDJSON followed by one line of per-name self
// times, and returns the file's path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	spans := r.spans
	dropped := r.dropped
	r.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	summary := struct {
		Spans     int        `json:"spans"`
		Dropped   int        `json:"dropped"`
		SelfTimes []selfStat `json:"self_times"`
	}{len(spans), dropped, selfTimes(spans)}
	if err := enc.Encode(summary); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
