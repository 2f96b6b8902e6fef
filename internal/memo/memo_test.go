package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetFillsOncePerKey(t *testing.T) {
	c := New[int, int]("test.fill-once", 8)
	calls := 0
	fill := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 5; i++ {
		v, err := c.Get(7, fill)
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			t.Fatalf("value = %d", v)
		}
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 4 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 4 hits / 1 miss", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[string, int]("test.errors", 8)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.Get("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Len != 0 {
		t.Fatalf("failed fill left %d entries", c.Stats().Len)
	}
	v, err := c.Get("k", func() (int, error) { calls++; return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2 (error retried)", calls)
	}
}

// TestFailedFillWaitersCountAsMisses is the regression test for the
// singleflight error-path accounting skew: goroutines that join an
// in-flight fill which then fails must be counted as misses (they never
// got a usable value), and the errored slot must be dropped exactly once
// while the waiters still hold the entry.
func TestFailedFillWaitersCountAsMisses(t *testing.T) {
	c := New[int, int]("test.failed-fill-waiters", 8)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Get(1, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("filler err = %v, want boom", err)
		}
	}()
	<-started

	// Waiters join while the fill is in flight. Their own fill also fails,
	// so the accounting assertion below holds on every interleaving: a
	// waiter either blocks on the in-flight fill (miss via the error path)
	// or, arriving after the drop, runs its own failing fill (plain miss).
	const waiters = 8
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Get(1, func() (int, error) { return 0, boom })
			if !errors.Is(err, boom) {
				t.Errorf("waiter err = %v, want boom", err)
			}
		}()
	}
	// Give the waiters a moment to actually block on the in-flight entry so
	// the singleflight path is exercised, then let the fill fail.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Hits != 0 {
		t.Fatalf("hits = %d after failing fills, want 0", s.Hits)
	}
	if s.Misses != waiters+1 {
		t.Fatalf("misses = %d, want %d (filler + every waiter)", s.Misses, waiters+1)
	}
	if s.Evictions != 0 {
		t.Fatalf("evictions = %d; the errored drop must not count as an LRU eviction", s.Evictions)
	}
	if c.Stats().Len != 0 {
		t.Fatalf("len = %d after failed fill, want 0 (slot dropped exactly once)", c.Stats().Len)
	}

	// The key is retryable and a success counts as the usual miss-then-hit.
	v, err := c.Get(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if _, err := c.Get(1, func() (int, error) {
		t.Error("cached value refilled")
		return 0, nil
	}); err != nil {
		t.Fatalf("cached retry errored: %v", err)
	}
	s = c.Stats()
	if s.Hits != 1 || s.Misses != waiters+2 {
		t.Fatalf("post-retry stats = %+v, want 1 hit / %d misses", s, waiters+2)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int]("test.lru", 2)
	fill := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	c.Get(1, fill(1))
	c.Get(2, fill(2))
	c.Get(1, fill(1)) // touch 1: now 2 is least-recent
	c.Get(3, fill(3)) // evicts 2
	if c.Stats().Len != 2 {
		t.Fatalf("len = %d", c.Stats().Len)
	}
	touched := false
	c.Get(1, func() (int, error) { touched = true; return 0, nil })
	if touched {
		t.Fatal("recently-used key 1 was evicted")
	}
	refilled := false
	c.Get(2, func() (int, error) { refilled = true; return 2, nil })
	if !refilled {
		t.Fatal("evicted key 2 served from cache")
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestSingleflightConcurrent(t *testing.T) {
	c := New[int, int]("test.singleflight", 8)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, err := c.Get(5, func() (int, error) {
				calls.Add(1)
				return 55, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fill ran %d times under concurrency, want 1", n)
	}
	for i, v := range results {
		if v != 55 {
			t.Fatalf("worker %d got %d", i, v)
		}
	}
}

func TestPurgePreservesCounters(t *testing.T) {
	c := New[int, int]("test.purge", 8)
	c.Get(1, func() (int, error) { return 1, nil })
	c.Get(1, func() (int, error) { return 1, nil })
	c.Purge()
	if c.Stats().Len != 0 {
		t.Fatalf("len after purge = %d", c.Stats().Len)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("counters reset by purge: %+v", s)
	}
}

func TestStatsRegistryAndString(t *testing.T) {
	c := New[int, int]("test.registry", 4)
	c.Get(1, func() (int, error) { return 1, nil })
	found := false
	for _, s := range Stats() {
		if s.Name == "test.registry" {
			found = true
			if s.Misses != 1 {
				t.Fatalf("registry snapshot = %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("cache missing from registry")
	}
	if out := StatsString(); out == "" {
		t.Fatal("empty stats dump")
	}
}

func TestHitRate(t *testing.T) {
	if r := (CacheStats{}).HitRate(); r != 0 {
		t.Fatalf("zero-traffic hit rate = %v", r)
	}
	if r := (CacheStats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", r)
	}
}

func TestCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive capacity accepted")
		}
	}()
	New[int, int]("test.bad-cap", 0)
}

func TestDistinctKeysUnderCapacity(t *testing.T) {
	c := New[string, string]("test.distinct", 64)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k%d", i)
		v, err := c.Get(k, func() (string, error) { return "v" + k, nil })
		if err != nil || v != "v"+k {
			t.Fatalf("key %s: %q, %v", k, v, err)
		}
	}
	if c.Stats().Len != 32 {
		t.Fatalf("len = %d", c.Stats().Len)
	}
}
