// Package memo provides a small, generic, concurrency-safe memoization
// layer for the simulation pipeline: size-bounded caches with
// singleflight-style fill (concurrent requests for the same key compute
// the value once), LRU eviction, and hit/miss/eviction counters exposed
// through a package-level registry so command-line tools can report cache
// effectiveness (-stats).
//
// The caches here memoize derived quantities that are expensive to
// recompute and cheap to key — size-averaged critical fractions keyed by
// a layout content hash plus the defect-size distribution, rendered
// figures keyed by id and resolution — so design-space sweeps that
// revisit the same geometry stop paying for identical extractions.
//
// Cached values may be shared between callers: treat them as immutable.
package memo

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Cache is a size-bounded, concurrency-safe memoization cache from K to V
// with LRU eviction. The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	name string
	cap  int

	mu      sync.Mutex
	entries map[K]*list.Element
	lru     *list.List // front = most recently used; elements hold *entry[K, V]

	hits, misses, evictions uint64
}

// entry is one cache slot. ready is closed once val/err are populated, so
// concurrent Get calls for an in-flight key block on the first caller's
// fill instead of recomputing (singleflight).
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	err   error
}

// New returns an empty cache holding at most capacity entries and
// registers it in the package registry so Stats reports it. The name
// identifies the cache in stats dumps; it panics on a non-positive
// capacity.
func New[K comparable, V any](name string, capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("memo: cache %q capacity must be positive, got %d", name, capacity))
	}
	c := &Cache[K, V]{
		name:    name,
		cap:     capacity,
		entries: make(map[K]*list.Element),
		lru:     list.New(),
	}
	register(c)
	return c
}

// Get returns the cached value for key, filling it with fill on a miss.
// Concurrent calls for the same key run fill once and share the result.
// A fill error is returned to every waiter but is not cached: the slot is
// dropped exactly once (by the filling goroutine) and the next Get for the
// key retries. Accounting matches what callers observed: only accesses
// that resolved to a usable value count as hits, so the filler and every
// waiter of a failed fill count as misses.
func (c *Cache[K, V]) Get(key K, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[K, V])
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		<-e.ready
		// Classify the access only after the fill resolved: a waiter that
		// joined an in-flight fill which then failed never received a usable
		// cached value, so counting it as a hit would overstate cache
		// effectiveness by exactly the number of waiters on every failing
		// fill. The errored slot itself is dropped exactly once, by the
		// filling goroutine below — waiters still hold e but never touch the
		// LRU list for it.
		c.mu.Lock()
		if e.err != nil {
			c.misses++
		} else {
			c.hits++
		}
		c.mu.Unlock()
		return e.val, e.err
	}
	c.misses++
	e := &entry[K, V]{key: key, ready: make(chan struct{})}
	el := c.lru.PushFront(e)
	c.entries[key] = el
	for len(c.entries) > c.cap {
		oldest := c.lru.Back()
		victim := oldest.Value.(*entry[K, V])
		c.lru.Remove(oldest)
		delete(c.entries, victim.key)
		c.evictions++
	}
	c.mu.Unlock()

	v, err := fill()
	c.mu.Lock()
	e.val, e.err = v, err
	if err != nil {
		// Failures are not cached; drop the slot (unless it was already
		// evicted or replaced) so the next Get retries.
		if cur, ok := c.entries[key]; ok && cur == el {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return v, err
}

// Purge drops every cached entry. Counters are preserved: they describe
// the process lifetime, not the current contents. In-flight fills
// complete normally but their slots are forgotten.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[K]*list.Element)
	c.lru.Init()
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Name:      c.name,
		Capacity:  c.cap,
		Len:       len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// CacheStats is a point-in-time snapshot of one cache's effectiveness.
type CacheStats struct {
	Name      string
	Capacity  int
	Len       int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// purger is the type-erased view of a cache the registry holds.
type purger interface {
	Purge()
	stats() CacheStats
}

func (c *Cache[K, V]) stats() CacheStats { return c.Stats() }

var registry struct {
	mu     sync.Mutex
	caches []purger
}

func register(c purger) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.caches = append(registry.caches, c)
}

// Stats returns a snapshot of every registered cache, sorted by name.
func Stats() []CacheStats {
	registry.mu.Lock()
	caches := make([]purger, len(registry.caches))
	copy(caches, registry.caches)
	registry.mu.Unlock()
	out := make([]CacheStats, len(caches))
	for i, c := range caches {
		out[i] = c.stats()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// PurgeAll empties every registered cache (counters are preserved). The
// cold/warm golden tests use it to re-establish a cold start.
func PurgeAll() {
	registry.mu.Lock()
	caches := make([]purger, len(registry.caches))
	copy(caches, registry.caches)
	registry.mu.Unlock()
	for _, c := range caches {
		c.Purge()
	}
}

// StatsString formats the registry snapshot as an aligned table, one
// cache per line — the payload behind the CLI -stats flag.
func StatsString() string {
	stats := Stats()
	if len(stats) == 0 {
		return "memo: no caches registered\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %8s %8s %10s %10s %10s %8s\n",
		"cache", "len", "cap", "hits", "misses", "evicted", "hit%")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-32s %8d %8d %10d %10d %10d %7.1f%%\n",
			s.Name, s.Len, s.Capacity, s.Hits, s.Misses, s.Evictions, 100*s.HitRate())
	}
	return b.String()
}
