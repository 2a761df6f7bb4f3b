// Package cache is gvmr's one bounded cache: look a key up, else build its
// value once, keep it under a byte budget. Staged volumes, pager pages and
// kept macrocell grids (volume.StagingCache), rendered frames and the
// request coalescer (server), and the ray caster's skip-grid and
// opacity-corrected-table memos (render) are all instances of it.
//
// Policy:
//   - One build per key across concurrent callers: the first caller builds
//     outside the lock, everyone who asks meanwhile waits for its result.
//   - Bytes are reserved before a build starts, so concurrent misses see
//     the memory pressure; least-recently-used ready entries are evicted to
//     make room, entries still building never are.
//   - When the budget is disabled, or held by builds in flight, a miss
//     still builds once and hands the value to every waiter, but keeps
//     nothing (the build is told, and may decline to do the work).
//   - Failed builds are not kept, and a build that panics leaves no entry
//     behind: its waiters get ErrBuildAborted.
package cache

import (
	"container/list"
	"errors"
	"sync"
)

// ErrBuildAborted is what callers waiting on a build receive when it
// panicked (or exited its goroutine) instead of returning.
var ErrBuildAborted = errors.New("cache: the build of this entry did not return")

// Discard, returned by a build as its value's charge, hands the value to
// the callers waiting on it and keeps nothing.
const Discard int64 = -1

// Served says how Load came by its value.
type Served int

// Served values.
const (
	Hit    Served = iota // found ready
	Joined               // waited on another caller's build
	Built                // this caller built it
)

// Stats is a snapshot of a cache's counters. Every Load counts as exactly
// one hit or one miss; a Get counts as a hit or as nothing.
type Stats struct {
	Hits       int64 `json:"hits"`   // lookups that found a ready entry
	Misses     int64 `json:"misses"` // Loads that did not: they built, or joined a build in flight
	Joins      int64 `json:"-"`      // the misses that waited on another caller's build
	Inserts    int64 `json:"inserts"`
	Evictions  int64 `json:"evictions"`
	Bypassed   int64 `json:"bypassed"`     // builds that ran without a reservation
	BytesInUse int64 `json:"bytes_in_use"` // charged to live entries, ready or building
	Capacity   int64 `json:"capacity"`
}

// Cache is a bounded, concurrency-safe build-once LRU cache. The zero
// value is unusable; use New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int64
	inUse    int64 // bytes charged to every live entry, ready or building
	ready    int64 // the part of inUse held by ready entries: what eviction can free
	entries  map[K]*entry[K, V]
	lru      *list.List // front = most recently used
	stats    Stats      // the counters; BytesInUse and Capacity are filled in by Stats
}

type entry[K comparable, V any] struct {
	key   K
	bytes int64 // budget charge, held from insertion to removal
	elem  *list.Element
	done  chan struct{} // closed once val/err are set
	ready bool          // built and kept; guarded by Cache.mu
	val   V
	err   error
}

// New builds a cache bounded to capacity bytes. A capacity <= 0 keeps
// nothing but still shares one build among concurrent callers.
func New[K comparable, V any](capacity int64) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		entries:  map[K]*entry[K, V]{},
		lru:      list.New(),
	}
}

// Capacity returns the byte budget.
func (c *Cache[K, V]) Capacity() int64 { return c.capacity }

// Get returns key's value if it is cached and ready, counting a hit and
// refreshing its recency. Anything else counts nothing: the Load that
// follows will.
func (c *Cache[K, V]) Get(key K) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, found := c.entries[key]; found && e.ready {
		c.stats.Hits++
		c.lru.MoveToFront(e.elem)
		return e.val, true
	}
	return val, false
}

// Load returns the value cached under key, building it at most once
// across concurrent callers. est is reserved while build runs; reserved
// tells build whether the reservation was granted — without one its value
// is shared with the callers waiting on it and dropped. build returns the
// value's final charge (or Discard), which replaces the estimate.
func (c *Cache[K, V]) Load(key K, est int64, build func(reserved bool) (V, int64, error)) (val V, how Served, err error) {
	c.mu.Lock()
	if e, found := c.entries[key]; found {
		c.lru.MoveToFront(e.elem)
		if e.ready {
			c.stats.Hits++
			val = e.val
			c.mu.Unlock()
			return val, Hit, nil
		}
		c.stats.Misses++
		c.stats.Joins++
		c.mu.Unlock()
		<-e.done
		return e.val, Joined, e.err
	}
	c.stats.Misses++
	e := &entry[K, V]{key: key, done: make(chan struct{}), err: ErrBuildAborted}
	// Reserve before building. If even evicting every ready entry could
	// not fit the estimate (the budget is held by builds in flight), evict
	// nothing — dropping values other callers are using would gain nothing.
	reserved := c.capacity > 0 && c.inUse+est-c.ready <= c.capacity
	if reserved {
		e.bytes = est
		c.inUse += est
		c.evictLocked()
	} else {
		c.stats.Bypassed++
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	// Deferred, so a build that panics is unlinked, its reservation
	// released and its waiters woken while the panic travels on to the
	// builder's caller.
	charge := Discard
	defer func() {
		c.mu.Lock()
		if reserved && e.err == nil && charge >= 0 {
			c.inUse += charge - e.bytes
			c.ready += charge
			e.bytes, e.ready = charge, true
			c.stats.Inserts++
			c.evictLocked()
		} else {
			c.removeLocked(e)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	// Build outside the lock: it is the expensive part, and other keys
	// must not serialise behind it.
	val, charge, err = build(reserved)
	e.val, e.err = val, err
	return val, Built, err
}

// Demote moves key's entry, if cached, to the eviction end of the LRU: its
// owner knows it will not want the entry again soon.
func (c *Cache[K, V]) Demote(key K) {
	c.mu.Lock()
	if e, found := c.entries[key]; found {
		c.lru.MoveToBack(e.elem)
	}
	c.mu.Unlock()
}

// Flush drops every ready entry (builds in flight are left to finish and
// insert themselves; counters are preserved). Callers already holding a
// flushed value keep using it safely — unlinking an entry never mutates it.
func (c *Cache[K, V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.ready {
			c.removeLocked(e)
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.BytesInUse, st.Capacity = c.inUse, c.capacity
	return st
}

// Entry describes one live entry in a snapshot taken by Entries.
type Entry[K comparable, V any] struct {
	Key   K
	Val   V // zero while building
	Bytes int64
	Ready bool // false: its build is in flight
}

// Entries returns a snapshot of the live entries, most recently used
// first, without touching recency or counters.
func (c *Cache[K, V]) Entries() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, len(c.entries))
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		en := Entry[K, V]{Key: e.key, Bytes: e.bytes, Ready: e.ready}
		if e.ready { // until then the builder may be writing it
			en.Val = e.val
		}
		out = append(out, en)
	}
	return out
}

// evictLocked drops least-recently-used ready entries until the cache
// fits its capacity; entries still building hold their reservation and
// cannot be evicted.
func (c *Cache[K, V]) evictLocked() {
	for el := c.lru.Back(); el != nil && c.inUse > c.capacity; {
		prev := el.Prev()
		if e := el.Value.(*entry[K, V]); e.ready {
			c.removeLocked(e)
			c.stats.Evictions++
		}
		el = prev
	}
}

// removeLocked unlinks an entry and releases its charge. It must never
// mutate e.val/e.err: callers that joined the entry before removal still
// read those fields after <-e.done (the close is the happens-before edge),
// and the value's memory is released by GC once the last of them drops it.
func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	c.inUse -= e.bytes
	if e.ready {
		c.ready -= e.bytes
	}
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}
