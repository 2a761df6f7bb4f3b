package volume

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gvmr/internal/cache"
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
//   - Memory is bounded by package cache's policy: bytes are reserved
//     when a materialisation starts, least-recently-used ready entries
//     are evicted first to make room, and when in-flight reservations
//     exhaust the budget a further miss falls back to lazy per-region
//     evaluation instead of overshooting.
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

// StagingCache is the bounded build-once cache (package cache) of
// materialised volumes, pager pages and the macrocell grids a pager keeps
// for a brick plan. The zero value is unusable; use NewStagingCache.
type StagingCache struct {
	*cache.Cache[cacheKey, any]
}

type cacheKey struct {
	name string
	dims Dims
}

// bytes is the full budget charge of one cached volume: the dense voxels
// plus its macrocell summary grid (built alongside it for empty-space
// skipping). Both are pure functions of the dims, so reservations can be
// taken before either exists.
func (k cacheKey) bytes() int64 { return k.dims.Bytes() + MacrocellBytes(k.dims) }

// NewStagingCache builds a cache bounded to capacity bytes of voxel data.
// A capacity <= 0 yields a disabled cache whose Wrap is the identity.
func NewStagingCache(capacity int64) *StagingCache {
	return &StagingCache{cache.New[cacheKey, any](capacity)}
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
var Cache = NewStagingCache(BytesFromEnv("GVMR_STAGING_BYTES", defaultCacheBytes()))

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

// BytesFromEnv resolves a cache budget from the environment variable name
// (the ParseBytes grammar; "0" or "off" disables), else def. The variables
// exist to bound memory, so an unparsable value must never silently raise
// the bound: it fails safe by disabling the cache.
func BytesFromEnv(name string, def int64) int64 {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	n, ok := ParseBytes(s)
	if !ok {
		fmt.Fprintf(os.Stderr, "gvmr: unparsable %s=%q; that cache is disabled\n", name, s)
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

// ParseBytes reads a byte count with an optional K/M/G/T suffix
// (optionally followed by "iB" or "B"), e.g. "2G", "512MiB", "0", "off" —
// the grammar of GVMR_STAGING_BYTES. Anything but
// digits before the suffix — "1GX", "1.5G", "+2M" — is rejected.
func ParseBytes(s string) (int64, bool) {
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

// Cached wraps src with the process-wide staging cache; see
// (*StagingCache).Wrap for the pass-through rules.
func Cached(src Source) Source { return Cache.Wrap(src) }

// Wrap returns a Source that serves src's data out of the cache. It
// returns src unchanged when caching cannot help or would be unsafe: the
// cache is disabled, src is already cached or already dense, src does not
// declare itself Stageable, or src's full volume exceeds the cache
// capacity (the huge lazy path stays lazy).
func (c *StagingCache) Wrap(src Source) Source {
	if c == nil || c.Capacity() <= 0 {
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
	if (cacheKey{dims: src.Dims()}).bytes() > c.Capacity() {
		return src
	}
	return &CachedSource{cache: c, src: src}
}

// Stats returns a snapshot of the cache counters. A lookup that waited on
// a materialisation in flight found its entry, so it reads as a hit.
func (c *StagingCache) Stats() CacheStats {
	st := c.Cache.Stats()
	return CacheStats{
		Hits:             st.Hits + st.Joins,
		Misses:           st.Misses - st.Joins,
		Materialisations: st.Inserts,
		Evictions:        st.Evictions,
		BytesInUse:       st.BytesInUse,
		Capacity:         st.Capacity,
	}
}

// errBudgetHeld is what a build that was refused a reservation returns in
// place of building anything.
var errBudgetHeld = errors.New("volume: staging budget held by in-flight work")

// volumeFor returns the dense volume for src, materialising it at most
// once per key across all concurrent callers. errBudgetHeld means the
// budget is currently held by in-flight reservations that cannot be
// evicted: the caller should fall back to lazy per-region evaluation
// rather than materialise anything.
func (c *StagingCache) volumeFor(src Source) (*Volume, error) {
	key := cacheKey{name: src.Name(), dims: src.Dims()}
	// The charge covers the macrocell summary (a pure function of the dims);
	// the grid is built lazily, once, by the first staged brick whose
	// render needs empty-space skipping, and shared by every later view.
	bytes := key.bytes()
	val, _, err := c.Load(key, bytes, func(reserved bool) (any, int64, error) {
		if !reserved {
			return nil, 0, errBudgetHeld
		}
		v, err := Materialize(src)
		return v, bytes, err
	})
	vol, _ := val.(*Volume)
	return vol, err
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

// Fill implements Source: the first call (process-wide, per identity)
// materialises the full volume; every call copies the requested region
// row-wise out of the dense data. When the cache budget is entirely held
// by in-flight materialisations, the request falls back to the
// underlying source's lazy per-region evaluation.
func (s *CachedSource) Fill(r Region, dst []float32) error {
	v, err := s.cache.volumeFor(s.src)
	if errors.Is(err, errBudgetHeld) {
		return s.src.Fill(r, dst)
	}
	if err != nil {
		return err
	}
	if err := checkRegion(v.Dims, r, len(dst)); err != nil {
		return err
	}
	copyRegion(v, r, dst)
	return nil
}
