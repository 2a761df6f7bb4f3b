package volume

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testField(x, y, z float64) float32 {
	return float32(x*0.5 + y*0.3 + z*0.2)
}

// countingSource wraps a FuncSource and counts Fill calls, to observe how
// often the underlying field is actually evaluated.
type countingSource struct {
	*FuncSource
	fills atomic.Int64
}

func (s *countingSource) Fill(r Region, dst []float32) error {
	s.fills.Add(1)
	return s.FuncSource.Fill(r, dst)
}

// TestCachedBrickFillEquivalence is the staging-cache correctness
// contract: brick fills served from the cache are bit-identical to direct
// fills, and view-backed bricks sample bit-identically to copy-backed
// ones over core, ghost, and out-of-ghost (clamped) positions.
func TestCachedBrickFillEquivalence(t *testing.T) {
	d := Dims{X: 17, Y: 13, Z: 11}
	direct := fieldSource("cache-equiv", d, testField)
	cache := NewStagingCache(1 << 20)
	cached := cache.Wrap(direct)
	if _, ok := cached.(*CachedSource); !ok {
		t.Fatalf("Wrap returned %T, want *CachedSource", cached)
	}
	g, err := MakeGrid(d, [3]int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for _, b := range g.Bricks {
		want, err := FillBrick(direct, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FillBrick(cached, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("brick %d voxel %d: cached %v != direct %v",
					b.ID, i, got.Data[i], want.Data[i])
			}
		}
		view, err := StageBrick(cached, b)
		if err != nil {
			t.Fatal(err)
		}
		if view.Data != nil {
			t.Fatalf("brick %d: StageBrick through cache should be view-backed", b.ID)
		}
		// Sample over the ghost region and slightly beyond (clamping).
		o, e := b.Ghost.Org, b.Ghost.End()
		for i := 0; i < 500; i++ {
			px := float32(o[0]) - 1 + r.Float32()*float32(e[0]-o[0]+2)
			py := float32(o[1]) - 1 + r.Float32()*float32(e[1]-o[1]+2)
			pz := float32(o[2]) - 1 + r.Float32()*float32(e[2]-o[2]+2)
			if w, v := want.Sample(px, py, pz), view.Sample(px, py, pz); w != v {
				t.Fatalf("brick %d at (%v,%v,%v): view %v != copy %v", b.ID, px, py, pz, v, w)
			}
		}
	}
	st := cache.Stats()
	if st.Materialisations != 1 {
		t.Errorf("materialisations = %d, want 1", st.Materialisations)
	}
	if want := (cacheKey{dims: d}).bytes(); st.BytesInUse != want {
		t.Errorf("bytes in use = %d, want %d (volume + macrocells)", st.BytesInUse, want)
	}
}

// TestCacheMaterialisesOnceUnderConcurrency hammers one cache from many
// goroutines (run with -race) and checks single materialisation.
func TestCacheMaterialisesOnceUnderConcurrency(t *testing.T) {
	d := Dims{X: 32, Y: 32, Z: 32}
	under := &countingSource{FuncSource: fieldSource("cache-conc", d, testField)}
	cache := NewStagingCache(1 << 24)
	g, err := MakeGrid(d, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := cache.Wrap(under)
			for _, b := range g.Bricks {
				bd, err := FillBrick(src, b)
				if err != nil {
					errs <- err
					return
				}
				if bd.Data[0] != testField(
					(float64(b.Ghost.Org[0])+0.5)/float64(d.X),
					(float64(b.Ghost.Org[1])+0.5)/float64(d.Y),
					(float64(b.Ghost.Org[2])+0.5)/float64(d.Z)) {
					errs <- fmt.Errorf("brick %d: wrong data", b.ID)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := under.fills.Load(); n != 1 {
		t.Errorf("underlying Fill called %d times, want exactly 1", n)
	}
	if st := cache.Stats(); st.Materialisations != 1 {
		t.Errorf("materialisations = %d, want 1", st.Materialisations)
	}
}

// TestCacheEvictionAndBypass exercises the bounded-memory policy: LRU
// entries are evicted to fit the budget, sources beyond the budget bypass
// the cache entirely, and opted-out or already-dense sources pass through.
func TestCacheEvictionAndBypass(t *testing.T) {
	small := Dims{X: 16, Y: 16, Z: 16} // 16 KiB
	cache := NewStagingCache(3 * (cacheKey{dims: small}).bytes())
	fill := func(tag string) {
		src := cache.Wrap(fieldSource(tag, small, testField))
		dst := make([]float32, small.Voxels())
		if err := src.Fill(Region{Ext: small}, dst); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		fill(fmt.Sprintf("evict-%d", i))
	}
	st := cache.Stats()
	if st.BytesInUse > cache.Capacity() {
		t.Errorf("bytes in use %d over capacity %d", st.BytesInUse, cache.Capacity())
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	// LRU: the oldest entries were dropped, the newest survive.
	fill("evict-4")
	if st2 := cache.Stats(); st2.Hits != st.Hits+1 {
		t.Errorf("most recent entry was evicted (hits %d -> %d)", st.Hits, st2.Hits)
	}
	fill("evict-0")
	if st2 := cache.Stats(); st2.Materialisations != st.Materialisations+1 {
		t.Errorf("oldest entry should have been re-materialised")
	}

	// A source bigger than the whole budget bypasses the cache.
	huge := fieldSource("huge", Dims{X: 64, Y: 64, Z: 64}, testField)
	if s := cache.Wrap(huge); s != Source(huge) {
		t.Errorf("over-budget source should bypass the cache, got %T", s)
	}
	// A source that does not declare Stageable opts out.
	out := struct{ Source }{fieldSource("optout", small, testField)}
	if s := cache.Wrap(out); s != Source(out) {
		t.Errorf("a source that is not Stageable should bypass the cache, got %T", s)
	}
	// Already-dense volumes pass through.
	vs := NewVolumeSource(New(small), "dense")
	if s := cache.Wrap(vs); s != Source(vs) {
		t.Errorf("VolumeSource should bypass the cache, got %T", s)
	}
	// Wrapping is idempotent.
	c1 := cache.Wrap(fieldSource("idem", small, testField))
	if c2 := cache.Wrap(c1); c2 != c1 {
		t.Errorf("re-wrapping a cached source should be a no-op")
	}
	// A disabled cache is the identity.
	var nilCache *StagingCache
	src := fieldSource("nilwrap", small, testField)
	if s := nilCache.Wrap(src); s != Source(src) {
		t.Error("nil cache should pass sources through")
	}
	if s := NewStagingCache(0).Wrap(src); s != Source(src) {
		t.Error("zero-capacity cache should pass sources through")
	}
}

// TestCacheHitSurvivesConcurrentEviction churns a capacity-one cache
// with two competing sources from many goroutines (run with -race): a
// hit whose entry is evicted mid-flight must still return the volume it
// found, never (nil, nil). Regression test for eviction mutating entries
// that concurrent hitters hold.
func TestCacheHitSurvivesConcurrentEviction(t *testing.T) {
	d := Dims{X: 8, Y: 8, Z: 8}
	cache := NewStagingCache((cacheKey{dims: d}).bytes()) // room for exactly one volume+macrocells entry
	g, err := MakeGrid(d, [3]int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := cache.Wrap(fieldSource(fmt.Sprintf("churn-%d", w%2), d, testField))
			for i := 0; i < 200; i++ {
				bd, err := StageBrick(src, g.Bricks[i%2])
				if err != nil {
					errs <- err
					return
				}
				if bd.Sample(1, 1, 1) != bd.Sample(1, 1, 1) {
					errs <- fmt.Errorf("unstable sample")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Evictions == 0 {
		t.Error("churn produced no evictions; test is not exercising the race")
	}
}

// TestParseBytes covers the GVMR_STAGING_BYTES grammar, including the
// fail-safe rejection of garbage.
func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"off", 0, true},
		{" OFF ", 0, true},
		{"1024", 1024, true},
		{"2G", 2 << 30, true},
		{"2g", 2 << 30, true},
		{"512MiB", 512 << 20, true},
		{"3kb", 3 << 10, true},
		{"1T", 1 << 40, true},
		{"-1", 0, false},
		{"garbage", 0, false},
		{"2GG", 0, false},
		{"", 0, false},
		// Longest suffix must win deterministically: "1KiB" is 1 KiB, not
		// "1KI" + B or garbage.
		{"1KiB", 1 << 10, true},
		{"7GiB", 7 << 30, true},
		{"2TB", 2 << 40, true},
		{"5MB", 5 << 20, true},
		// Trailing or embedded garbage before the suffix is rejected.
		{"1GX", 0, false},
		{"1.5G", 0, false},
		{"+1G", 0, false},
		{"G", 0, false},
		{"KiB", 0, false},
		{"1 0K", 0, false},
		{"0x10", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseBytes(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// gateSource blocks inside Fill until released, so a test can hold a
// staging-cache materialisation (and its byte reservation) in flight for
// as long as it wants. With fails set, the materialisation errors after
// release.
type gateSource struct {
	*FuncSource
	startOnce sync.Once
	started   chan struct{} // closed when Fill begins
	release   chan struct{} // Fill blocks until this closes
	fails     bool
}

func newGateSource(tag string, d Dims, fails bool) *gateSource {
	return &gateSource{
		FuncSource: fieldSource(tag, d, testField),
		started:    make(chan struct{}),
		release:    make(chan struct{}),
		fails:      fails,
	}
}

func (s *gateSource) Fill(r Region, dst []float32) error {
	s.startOnce.Do(func() { close(s.started) })
	<-s.release
	if s.fails {
		return fmt.Errorf("synthetic materialisation failure")
	}
	return s.FuncSource.Fill(r, dst)
}

// TestCacheFallbackWhenBudgetInFlight pins the budget with an in-flight
// materialisation and checks the documented fallback: volumeFor reports
// errBudgetHeld (nothing is evicted — the reservation cannot be) and
// CachedSource.Fill serves the request through the underlying source's
// lazy per-region evaluation instead of materialising anything.
func TestCacheFallbackWhenBudgetInFlight(t *testing.T) {
	d := Dims{X: 8, Y: 8, Z: 8}
	cache := NewStagingCache((cacheKey{dims: d}).bytes()) // room for exactly one volume+macrocells entry
	gate := newGateSource("inflight-holder", d, false)
	leader := cache.Wrap(gate)
	leaderErr := make(chan error, 1)
	go func() {
		dst := make([]float32, d.Voxels())
		leaderErr <- leader.Fill(Region{Ext: d}, dst)
	}()
	<-gate.started // the reservation now holds the whole budget

	under := &countingSource{FuncSource: fieldSource("inflight-victim", d, testField)}
	victim := cache.Wrap(under)
	if _, ok := victim.(*CachedSource); !ok {
		t.Fatalf("Wrap returned %T, want *CachedSource", victim)
	}
	got := make([]float32, d.Voxels())
	if err := victim.Fill(Region{Ext: d}, got); err != nil {
		t.Fatal(err)
	}
	if n := under.fills.Load(); n != 1 {
		t.Errorf("underlying Fill called %d times, want 1 (lazy fallback)", n)
	}
	want := make([]float32, d.Voxels())
	if err := under.FuncSource.Fill(Region{Ext: d}, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("voxel %d: fallback %v != direct %v", i, got[i], want[i])
		}
	}
	st := cache.Stats()
	if st.Materialisations != 0 {
		t.Errorf("materialisations = %d, want 0 while the budget is held", st.Materialisations)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}

	close(gate.release)
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Materialisations != 1 {
		t.Errorf("leader materialisations = %d, want 1", st.Materialisations)
	}
	// With the budget free again, the victim key materialises normally.
	if err := victim.Fill(Region{Ext: d}, got); err != nil {
		t.Fatal(err)
	}
	if n := under.fills.Load(); n != 2 {
		t.Errorf("underlying Fill called %d times, want 2 (one lazy, one materialise)", n)
	}
}

// TestCacheHitObservesFailedMaterialisation checks the concurrent-hitter
// contract on the failure path: a caller that found an in-flight entry
// waits on <-e.ready and then observes the materialisation error; the
// failed entry is not cached and a later request re-attempts.
func TestCacheHitObservesFailedMaterialisation(t *testing.T) {
	d := Dims{X: 8, Y: 8, Z: 8}
	cache := NewStagingCache(1 << 20)
	gate := newGateSource("fail-mat", d, true)
	src := cache.Wrap(gate)
	fill := func() error {
		dst := make([]float32, d.Voxels())
		return src.Fill(Region{Ext: d}, dst)
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- fill() }()
	<-gate.started
	hitterErr := make(chan error, 1)
	go func() { hitterErr <- fill() }() // finds the in-flight entry, waits on ready
	// Only release once the hitter has actually hit the in-flight entry
	// (it blocks on <-e.ready after bumping the counter), so the test
	// deterministically exercises the waiting-hitter path.
	for deadline := time.Now().Add(10 * time.Second); cache.Stats().Hits < 1; {
		if time.Now().After(deadline) {
			t.Fatal("hitter never found the in-flight entry")
		}
		time.Sleep(time.Millisecond)
	}

	close(gate.release)
	if err := <-leaderErr; err == nil {
		t.Fatal("leader saw no materialisation error")
	}
	if err := <-hitterErr; err == nil {
		t.Fatal("concurrent hitter saw no materialisation error")
	}
	st := cache.Stats()
	if st.Materialisations != 0 {
		t.Errorf("materialisations = %d, want 0 (failures are not cached)", st.Materialisations)
	}
	if st.BytesInUse != 0 {
		t.Errorf("bytes in use = %d after failed materialisation", st.BytesInUse)
	}
	// The failed entry is gone: a later request re-attempts (and fails
	// again, immediately, since release stays closed).
	if err := fill(); err == nil {
		t.Error("re-attempt unexpectedly succeeded")
	}
	if st := cache.Stats(); st.Misses < 2 {
		t.Errorf("misses = %d, want ≥ 2 (failed entry must not linger)", st.Misses)
	}
}

// panicSource panics in Fill while armed: a bug in a source, which
// net/http recovers when a worker stages bricks under a /map handler.
type panicSource struct {
	*FuncSource
	armed bool
}

func (s *panicSource) Fill(r Region, dst []float32) error {
	if s.armed {
		panic("synthetic source bug")
	}
	return s.FuncSource.Fill(r, dst)
}

// TestCachePanickingBuildDoesNotPoison: a materialisation that panics
// reaches its caller as that panic and leaves nothing behind — no entry
// in flight forever, no bytes reserved — so the next Fill of the same
// source materialises instead of blocking on a build nobody is running.
func TestCachePanickingBuildDoesNotPoison(t *testing.T) {
	cache := NewStagingCache(1 << 20)
	src := &panicSource{FuncSource: fieldSource("panics", Dims{X: 8, Y: 8, Z: 8}, testField), armed: true}
	fill := func() error {
		return cache.Wrap(src).Fill(Region{Ext: Dims{1, 1, 1}}, make([]float32, 1))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach its caller")
			}
		}()
		fill()
	}()
	if st := cache.Stats(); st.BytesInUse != 0 {
		t.Errorf("panicked build left %d bytes reserved", st.BytesInUse)
	}
	src.armed = false
	done := make(chan error, 1)
	go func() { done <- fill() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fill after a panicked build is still blocked on its entry")
	}
	if st := cache.Stats(); st.Materialisations != 1 {
		t.Errorf("materialisations = %d, want 1", st.Materialisations)
	}
}

// TestCacheFlush drops entries and releases accounted bytes.
func TestCacheFlush(t *testing.T) {
	d := Dims{X: 8, Y: 8, Z: 8}
	cache := NewStagingCache(1 << 20)
	src := cache.Wrap(fieldSource("flush", d, testField))
	dst := make([]float32, d.Voxels())
	if err := src.Fill(Region{Ext: d}, dst); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.BytesInUse == 0 {
		t.Fatal("nothing cached")
	}
	cache.Flush()
	if st := cache.Stats(); st.BytesInUse != 0 {
		t.Errorf("bytes in use after flush = %d", st.BytesInUse)
	}
	// Still serves correctly after a flush (re-materialises).
	if err := src.Fill(Region{Ext: d}, dst); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Materialisations != 2 {
		t.Errorf("materialisations = %d, want 2", st.Materialisations)
	}
}

// readyWalk is the O(entries) sum volumeFor's miss path used to take
// under the lock on every miss: the bytes held by ready entries, which
// the cache's refusal decision must agree with (package cache's own tests
// hold its running count to the walk). Every live entry's charge, ready
// or in flight, must add up to bytes_in_use.
func readyWalk(c *StagingCache) int64 {
	var ready, all int64
	for _, e := range c.Entries() {
		all += e.Bytes
		if e.Ready {
			ready += e.Bytes
		}
	}
	if all != c.Stats().BytesInUse {
		return -1 - ready // never a legal sum: the caller's comparison fails loudly
	}
	return ready
}

// TestCacheReadyBytesMatchWalk drives the cache through every transition
// that moves bytes between "reserved in flight" and "ready" — insert,
// LRU eviction, failed build, flush, an in-flight reservation — and
// checks the running count against the walk it replaced, and that the
// "budget held by in-flight reservations → ok == false" decision is the
// one the walk would have made.
func TestCacheReadyBytesMatchWalk(t *testing.T) {
	d := Dims{X: 8, Y: 8, Z: 8}
	one := (cacheKey{dims: d}).bytes()
	cache := NewStagingCache(3 * one)
	check := func(when string, want int64) {
		t.Helper()
		if got := readyWalk(cache); got != want {
			t.Fatalf("%s: ready bytes %d (negative: bytes_in_use disagrees with the walk), want %d", when, got, want)
		}
	}
	fill := func(src Source) error {
		return cache.Wrap(src).Fill(Region{Ext: Dims{1, 1, 1}}, make([]float32, 1))
	}
	check("empty", 0)
	for i := 0; i < 5; i++ { // two more than fit: evictions
		if err := fill(fieldSource(fmt.Sprintf("ready-%d", i), d, testField)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after insert %d", i), int64(min(i+1, 3))*one)
	}
	failing := newGateSource("ready-fails", d, true)
	close(failing.release)
	if err := fill(failing); err == nil {
		t.Fatal("failing source materialised")
	}
	check("after failed build", 2*one) // its reservation evicted one, then was released

	// An in-flight reservation is inUse but not ready: with it and two
	// ready entries the budget is full, a third key evicts a ready one,
	// and once only in-flight bytes remain a key that cannot fit is
	// refused without evicting anything.
	gate := newGateSource("ready-inflight", d, false)
	done := make(chan error, 1)
	go func() { done <- fill(gate) }()
	<-gate.started
	check("one in flight", 2*one)
	big := Dims{X: 8, Y: 8, Z: 24} // three entries' worth
	if _, err := cache.volumeFor(fieldSource("ready-big", big, testField)); !errors.Is(err, errBudgetHeld) {
		t.Fatalf("a key needing the in-flight bytes too: err=%v, want refused", err)
	}
	check("after refusal", 2*one) // refusal evicts nothing
	if st := cache.Stats(); st.BytesInUse != 3*one {
		t.Fatalf("bytes in use %d, want %d", st.BytesInUse, 3*one)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	check("in-flight landed", 3*one)
	cache.Flush()
	check("flushed", 0)
	if st := cache.Stats(); st.BytesInUse != 0 {
		t.Fatalf("bytes in use after flush %d", st.BytesInUse)
	}
}
