package volume

import (
	"container/list"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// This file implements the volume staging cache: a process-wide,
// concurrency-safe materialisation cache that evaluates an analytic source
// exactly once and thereafter serves every Fill/FillBrick region request as
// row-wise copies out of the dense volume.
//
// Motivation: analytic dataset synthesis (FuncSource.Fill) dominates the
// wall-clock of every figure benchmark — each brick stage, each frame of a
// RenderSequence, and each cluster-size point of a scaling sweep would
// otherwise re-evaluate the same field from scratch. The cache turns all of
// that repeated synthesis into memcpy.
//
// Policy:
//   - Entries are keyed by source identity: Name() + Dims(). Two sources
//     with equal names and dims MUST produce identical data (true for the
//     built-in datasets, whose tags embed dataset name and resolution).
//   - Only sources that declare themselves cacheable (the Stageable
//     interface) are cached; dense VolumeSources and file-backed sources
//     pass through untouched.
//   - Memory is bounded: bytes are reserved when a materialisation
//     starts, least-recently-used ready entries are evicted first to
//     make room, and when in-flight reservations exhaust the budget a
//     further miss materialises uncached instead of overshooting.
//     Sources whose full volume exceeds the capacity bypass the cache
//     entirely — that is the huge (≥1024³ with small budgets) lazy
//     out-of-core path the FuncSource streaming design exists for.
//   - Failed materialisations are not cached.
//
// The default process-wide cache holds min(8 GiB, half of available
// memory), overridable with the GVMR_STAGING_BYTES environment variable
// ("2G", "512MiB", plain bytes; "0" or "off" disables caching, and an
// unparsable value disables it fail-safe).

// Stageable marks a Source whose data is deterministic given Name()+Dims(),
// making it safe to share through a StagingCache.
type Stageable interface {
	// StageCacheable reports whether this source may be materialised once
	// and shared process-wide.
	StageCacheable() bool
}

// CacheStats is a snapshot of staging-cache activity.
type CacheStats struct {
	Hits             int64 `json:"hits"`             // region fills served from an already-dense volume
	Misses           int64 `json:"misses"`           // lookups that had to materialise
	Materialisations int64 `json:"materialisations"` // successful full-volume evaluations
	Evictions        int64 `json:"evictions"`        // entries dropped to stay within capacity
	BytesInUse       int64 `json:"bytes_in_use"`
	Capacity         int64 `json:"capacity"`
}

// StagingCache is a bounded, concurrency-safe cache of materialised
// volumes. The zero value is unusable; use NewStagingCache.
type StagingCache struct {
	mu       sync.Mutex
	capacity int64
	inUse    int64 // bytes reserved by every live entry, ready or in flight
	ready    int64 // the part of inUse held by ready entries: what eviction can free
	entries  map[cacheKey]*cacheEntry
	lru      *list.List // front = most recently used

	hits, misses, materialisations, evictions int64
}

type cacheKey struct {
	name string
	dims Dims
}

// bytes is the full budget charge of one cached entry: the dense volume
// plus its macrocell summary grid (built alongside it for empty-space
// skipping). Both are pure functions of the dims, so reservations can be
// taken before either exists.
func (k cacheKey) bytes() int64 { return k.dims.Bytes() + MacrocellBytes(k.dims) }

// cacheEntry is one cached value: a materialised *Volume, a pager's page
// or the macrocell grids it keeps for a brick plan (PagedSource.grids).
type cacheEntry struct {
	key   cacheKey
	bytes int64 // budget charge, reserved from insertion to removal
	elem  *list.Element
	ready chan struct{} // closed once val/err are set
	val   any           // nil until ready, and after a failed build
	err   error
}

// NewStagingCache builds a cache bounded to capacity bytes of voxel data.
// A capacity <= 0 yields a disabled cache whose Wrap is the identity.
func NewStagingCache(capacity int64) *StagingCache {
	return &StagingCache{
		capacity: capacity,
		entries:  map[cacheKey]*cacheEntry{},
		lru:      list.New(),
	}
}

// DefaultCacheBytes caps the default staging-cache capacity; the actual
// default is the smaller of this and half the machine's available
// memory, so materialising a large volume never converts a render that
// used to stream lazily into an out-of-memory condition. Volumes that
// don't fit the budget keep the lazy out-of-core path.
const DefaultCacheBytes = 8 << 30

// Cache is the process-wide staging cache used by the renderer. Its
// capacity comes from GVMR_STAGING_BYTES when set ("0" or "off" disables
// staging), else min(DefaultCacheBytes, available memory / 2).
var Cache = NewStagingCache(cacheBytesFromEnv())

func defaultCacheBytes() int64 {
	if avail, ok := availableMemoryBytes(); ok && avail/2 < DefaultCacheBytes {
		return avail / 2
	}
	return DefaultCacheBytes
}

// availableMemoryBytes reports the kernel's estimate of allocatable
// memory (MemAvailable in /proc/meminfo). On platforms without it the
// caller falls back to the fixed default.
func availableMemoryBytes() (int64, bool) {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemAvailable:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}

func cacheBytesFromEnv() int64 {
	s := os.Getenv("GVMR_STAGING_BYTES")
	if s == "" {
		return defaultCacheBytes()
	}
	n, ok := parseBytes(s)
	if !ok {
		// The variable exists to bound memory; an unparsable value must
		// never silently raise the bound, so fail safe by disabling.
		fmt.Fprintf(os.Stderr, "gvmr: unparsable GVMR_STAGING_BYTES=%q; staging cache disabled\n", s)
		return 0
	}
	return n
}

// byteSuffixes maps size suffixes to their shift, longest form first so
// "KIB" never half-matches as "K" + garbage. The table is an ordered
// slice, not a map: suffix matching must be deterministic by
// construction, not by the accident that the letters K/M/G/T are
// disjoint under random map iteration.
var byteSuffixes = []struct {
	suf   string
	shift int
}{
	{"KIB", 10}, {"KB", 10}, {"K", 10},
	{"MIB", 20}, {"MB", 20}, {"M", 20},
	{"GIB", 30}, {"GB", 30}, {"G", 30},
	{"TIB", 40}, {"TB", 40}, {"T", 40},
}

// parseBytes reads a byte count with an optional K/M/G/T suffix
// (optionally followed by "iB" or "B"), e.g. "2G", "512MiB", "0", "off".
// Anything but digits before the suffix — "1GX", "1.5G", "+2M" — is
// rejected.
func parseBytes(s string) (int64, bool) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "OFF" {
		return 0, true
	}
	shift := 0
	for _, c := range byteSuffixes {
		if strings.HasSuffix(t, c.suf) {
			t = strings.TrimSpace(strings.TrimSuffix(t, c.suf))
			shift = c.shift
			break
		}
	}
	if t == "" {
		return 0, false
	}
	for _, r := range t {
		if r < '0' || r > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 || (shift > 0 && n > (1<<62)>>shift) {
		return 0, false
	}
	return n << shift, true
}

// ParseBytes parses a human-readable byte count ("2G", "512MiB", "0",
// "off") — the grammar GVMR_STAGING_BYTES and GVMR_FRAME_BYTES share.
func ParseBytes(s string) (int64, bool) { return parseBytes(s) }

// Cached wraps src with the process-wide staging cache; see
// (*StagingCache).Wrap for the pass-through rules.
func Cached(src Source) Source { return Cache.Wrap(src) }

// Wrap returns a Source that serves src's data out of the cache. It
// returns src unchanged when caching cannot help or would be unsafe: the
// cache is disabled, src is already cached or already dense, src does not
// declare itself Stageable, or src's full volume exceeds the cache
// capacity (the huge lazy path stays lazy).
func (c *StagingCache) Wrap(src Source) Source {
	if c == nil || c.capacity <= 0 {
		return src
	}
	switch src.(type) {
	case *CachedSource, *VolumeSource:
		return src
	}
	s, ok := src.(Stageable)
	if !ok || !s.StageCacheable() {
		return src
	}
	if (cacheKey{dims: src.Dims()}).bytes() > c.capacity {
		return src
	}
	return &CachedSource{cache: c, src: src}
}

// Stats returns a snapshot of the cache counters.
func (c *StagingCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		Materialisations: c.materialisations,
		Evictions:        c.evictions,
		BytesInUse:       c.inUse,
		Capacity:         c.capacity,
	}
}

// Capacity returns the byte budget.
func (c *StagingCache) Capacity() int64 { return c.capacity }

// Flush drops every cached volume (entries still materialising are left
// to finish and insert themselves; counters are preserved). Callers
// already holding a flushed volume keep using it safely — unlinking an
// entry never mutates it.
func (c *StagingCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.val != nil {
			c.removeLocked(e)
		}
	}
}

// volumeFor returns the dense volume for src, materialising it at most
// once per key across all concurrent callers. ok == false (without
// error) means the budget is currently held by in-flight reservations
// that cannot be evicted: the caller should fall back to lazy per-region
// evaluation rather than materialise anything.
func (c *StagingCache) volumeFor(src Source) (vol *Volume, ok bool, err error) {
	key := cacheKey{name: src.Name(), dims: src.Dims()}
	// The charge covers the macrocell summary (a pure function of the dims);
	// the grid is built lazily, once, by the first staged brick whose
	// render needs empty-space skipping, and shared by every later view.
	val, ok, err := c.load(key, key.bytes(), func() (any, error) { return Materialize(src) })
	vol, _ = val.(*Volume)
	return vol, ok, err
}

// load returns the value cached under key, building it at most once
// across concurrent callers and charging bytes to the budget while it is
// held; ok == false is volumeFor's "budget held by in-flight work".
func (c *StagingCache) load(key cacheKey, bytes int64, build func() (any, error)) (val any, ok bool, err error) {
	c.mu.Lock()
	if e, found := c.entries[key]; found {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	c.misses++
	// Reserve the bytes before building so concurrent misses see the
	// memory pressure. If even evicting every ready entry could not fit
	// the reservation (the budget is held by in-flight builds), evict
	// nothing — dropping volumes other renders are using would gain
	// nothing — and let the caller fall back to lazy evaluation.
	if c.inUse+bytes-c.ready > c.capacity {
		c.mu.Unlock()
		return nil, false, nil
	}
	c.inUse += bytes
	c.evictLocked()
	e := &cacheEntry{key: key, bytes: bytes, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	// Build outside the lock: evaluation is the expensive, already-
	// parallel part, and other keys must not serialise behind it.
	val, err = build()

	c.mu.Lock()
	if e.err = err; err != nil {
		val = nil
		c.removeLocked(e) // do not cache failures; releases the reservation
	} else {
		e.val = val
		c.ready += bytes
		c.materialisations++
	}
	c.mu.Unlock()
	close(e.ready)
	return val, true, err
}

// demote moves key's entry, if cached, to the eviction end of the LRU:
// its owner knows it will not want the entry again soon.
func (c *StagingCache) demote(key cacheKey) {
	c.mu.Lock()
	if e, found := c.entries[key]; found {
		c.lru.MoveToBack(e.elem)
	}
	c.mu.Unlock()
}

// evictLocked drops least-recently-used ready entries until the cache
// fits its capacity; entries still materialising hold their reservation
// and cannot be evicted.
func (c *StagingCache) evictLocked() {
	for el := c.lru.Back(); el != nil && c.inUse > c.capacity; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.val != nil {
			c.removeLocked(e)
			c.evictions++
		}
		el = prev
	}
}

// removeLocked unlinks an entry and releases its byte reservation (every
// live entry carries one from the moment it is inserted). It must never
// mutate e.val/e.err: concurrent hitters that found the entry before
// removal still read those fields after <-e.ready (the close is the
// happens-before edge), and the volume's memory is released by GC once
// the last of them drops it.
func (c *StagingCache) removeLocked(e *cacheEntry) {
	c.inUse -= e.bytes
	if e.val != nil {
		c.ready -= e.bytes
	}
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}

// CachedSource serves a Stageable source's regions out of a StagingCache.
type CachedSource struct {
	cache *StagingCache
	src   Source
}

// Name implements Source.
func (s *CachedSource) Name() string { return s.src.Name() }

// Dims implements Source.
func (s *CachedSource) Dims() Dims { return s.src.Dims() }

// Unwrap returns the underlying source.
func (s *CachedSource) Unwrap() Source { return s.src }

// Fill implements Source: the first call (process-wide, per identity)
// materialises the full volume; every call copies the requested region
// row-wise out of the dense data. When the cache budget is entirely held
// by in-flight materialisations, the request falls back to the
// underlying source's lazy per-region evaluation.
func (s *CachedSource) Fill(r Region, dst []float32) error {
	v, ok, err := s.cache.volumeFor(s.src)
	if err != nil {
		return err
	}
	if !ok {
		return s.src.Fill(r, dst)
	}
	if err := checkRegion(v.Dims, r, len(dst)); err != nil {
		return err
	}
	copyRegion(v, r, dst)
	return nil
}
