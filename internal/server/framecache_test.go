package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gvmr/internal/cache"
	"gvmr/internal/img"
	"gvmr/internal/vec"
)

// rq names a test frame: the cache keys on the Request value, so a
// dataset name alone makes distinct keys.
func rq(name string) Request { return Request{Dataset: name} }

// mkFrame builds a test frame, PNG not made: a w×h framebuffer with no
// background — no pixel repeats its first — so its compact form is as
// large as it gets and its charge is the raw bytes plus the PNG bound.
func mkFrame(w, h int) *Frame {
	im := img.New(w, h, vec.V4{})
	for i := range im.Pix {
		im.Pix[i].X = float32(i)
	}
	return frameOf(im)
}

// frameOf keeps im as the service keeps a rendered frame.
func frameOf(im *img.Image) *Frame {
	return &Frame{Width: im.W, Height: im.H, Pixels: im.Compact(), Digest: im.Digest()}
}

// frameImage is f's full framebuffer, read back from its raw encoding.
func frameImage(t *testing.T, f *Frame) *img.Image {
	t.Helper()
	var raw bytes.Buffer
	if err := f.Pixels.EncodeRaw(&raw); err != nil {
		t.Fatal(err)
	}
	im, err := img.DecodeRaw(&raw, f.Width, f.Height)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// renderInto reserves the raw-frame estimate, "renders" and keeps one
// frame at its final charge, and reports whether the reservation was
// granted.
func renderInto(c *FrameCache, key string, w, h int) (reserved bool) {
	c.Load(rq(key), img.RawBytes(w, h), func(r bool) (*Frame, int64, error) {
		reserved = r
		f := mkFrame(w, h)
		return f, f.Bytes(), nil
	})
	return reserved
}

// inFlight starts a render of key that holds its reservation until the
// returned finish is called with the render's outcome.
func inFlight(t *testing.T, c *FrameCache, key string, w, h int) (finish func(*Frame, error)) {
	t.Helper()
	type outcome struct {
		f   *Frame
		err error
	}
	entered, release, done := make(chan struct{}), make(chan outcome), make(chan struct{})
	go func() {
		defer close(done)
		c.Load(rq(key), img.RawBytes(w, h), func(bool) (*Frame, int64, error) {
			close(entered)
			o := <-release
			if o.err != nil {
				return nil, 0, o.err
			}
			return o.f, o.f.Bytes(), nil
		})
	}()
	<-entered
	return func(f *Frame, err error) {
		release <- outcome{f, err}
		<-done
	}
}

// TestFrameCacheLRUAndBudget mirrors the staging cache's bounded-memory
// policy: LRU frames are evicted to fit the budget and the newest
// survive. Each frame is charged its compact bytes plus the PNG bound.
func TestFrameCacheLRUAndBudget(t *testing.T) {
	w, h := 16, 16
	per := mkFrame(w, h).Bytes()
	c := NewFrameCache(3 * per)
	for i := 0; i < 5; i++ {
		if !renderInto(c, fmt.Sprintf("f%d", i), w, h) {
			t.Fatalf("frame %d did not cache", i)
		}
	}
	st := c.Stats()
	if st.BytesInUse != 3*per {
		t.Errorf("bytes in use %d, want three frames' %d", st.BytesInUse, 3*per)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if _, ok := c.Get(rq("f4")); !ok {
		t.Error("most recent frame was evicted")
	}
	if _, ok := c.Get(rq("f0")); ok {
		t.Error("oldest frame survived a full wrap")
	}
}

// TestFrameCacheReserveFallback mirrors TestCacheFallbackWhenBudgetInFlight
// for the frame cache: when the whole budget is held by an in-flight
// reservation, a further render is refused one (it proceeds uncached)
// instead of evicting or overshooting.
func TestFrameCacheReserveFallback(t *testing.T) {
	w, h := 16, 16
	c := NewFrameCache(mkFrame(w, h).Bytes() + 200) // room for one frame
	finish := inFlight(t, c, "inflight", w, h)
	if renderInto(c, "victim", w, h) {
		t.Fatal("second reservation granted while the budget is held in flight")
	}
	if st := c.Stats(); st.Bypassed != 1 {
		t.Errorf("bypassed = %d, want 1", st.Bypassed)
	}
	if _, ok := c.Get(rq("victim")); ok {
		t.Error("a render without a reservation was kept")
	}
	finish(mkFrame(w, h), nil)
	// Ready entries are evictable: the same reservation is now granted.
	finish = inFlight(t, c, "victim", w, h)
	if _, ok := c.Get(rq("inflight")); ok {
		t.Error("committed frame should have been evicted for the new reservation")
	}
	finish(nil, errors.New("synthetic render failure"))
	if st := c.Stats(); st.BytesInUse != 0 {
		t.Errorf("bytes in use = %d after the failed render, want 0", st.BytesInUse)
	}
}

// TestFrameCacheFailedRenderNotCached mirrors the staging cache's
// failures-are-not-cached policy.
func TestFrameCacheFailedRenderNotCached(t *testing.T) {
	w, h := 8, 8
	c := NewFrameCache(1 << 20)
	inFlight(t, c, "fail", w, h)(nil, errors.New("synthetic render failure"))
	if st := c.Stats(); st.BytesInUse != 0 || st.Inserts != 0 {
		t.Errorf("failed render left state: %+v", st)
	}
	if _, ok := c.Get(rq("fail")); ok {
		t.Error("failed render served from cache")
	}
	if !renderInto(c, "fail", w, h) {
		t.Error("re-render after failure did not cache")
	}
	if _, ok := c.Get(rq("fail")); !ok {
		t.Error("re-rendered frame missing")
	}
}

// TestFrameCacheBypassAndDisable covers over-budget frames, a duplicate
// request of a key in flight, degraded frames and the disabled cache.
func TestFrameCacheBypassAndDisable(t *testing.T) {
	c := NewFrameCache(1 << 10)
	if renderInto(c, "huge", 64, 64) {
		t.Error("over-budget reservation granted")
	}
	finish := inFlight(t, c, "dup", 4, 4)
	joined := make(chan cache.Served)
	go func() {
		_, how, _ := c.Load(rq("dup"), 64, func(bool) (*Frame, int64, error) {
			t.Error("a key in flight was rendered twice")
			return nil, 0, nil
		})
		joined <- how
	}()
	waitFor(t, "the duplicate to join", func() bool { return c.Stats().Joins == 1 })
	finish(mkFrame(4, 4), nil)
	if how := <-joined; how != cache.Joined {
		t.Errorf("duplicate request was served %v, want joined", how)
	}
	f, _, err := c.Load(rq("degraded"), 64, func(bool) (*Frame, int64, error) {
		return &Frame{Degraded: true}, cache.Discard, nil
	})
	if err != nil || f == nil || !f.Degraded {
		t.Errorf("discarded frame was not handed to its caller: %v, %v", f, err)
	}
	if _, ok := c.Get(rq("degraded")); ok {
		t.Error("discarded frame was kept")
	}
	z := NewFrameCache(0)
	if renderInto(z, "x", 1, 1) {
		t.Error("zero-capacity cache reserved")
	}
	if _, ok := z.Get(rq("x")); ok {
		t.Error("zero-capacity cache hit")
	}
}

// TestFrameCacheCommitAdjustsCharge: the reservation is an estimate (raw
// bytes); the render's final charge — the compact bytes plus the PNG
// bound — replaces it and evicts if the adjustment pushed the cache over
// budget. The charge holds the bound whether or not the PNG was ever
// made, so encoding it later never takes the cache over budget.
func TestFrameCacheCommitAdjustsCharge(t *testing.T) {
	w, h := 8, 8
	charge := mkFrame(w, h).Bytes()
	c := NewFrameCache(2*charge - 1)
	renderInto(c, "a", w, h)
	// Two frames' charges do not fit: LRU ("a") must go.
	if !renderInto(c, "b", w, h) {
		t.Fatal("second reservation declined")
	}
	st := c.Stats()
	if st.BytesInUse != charge {
		t.Errorf("bytes in use = %d, want %d", st.BytesInUse, charge)
	}
	if _, ok := c.Get(rq("a")); ok {
		t.Error("LRU frame survived the commit adjustment")
	}
	f, ok := c.Get(rq("b"))
	if !ok {
		t.Fatal("committed frame missing")
	}
	png, err := f.PNG()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(png)) > img.PNGBound(w, h) || f.Bytes() != charge || c.Stats().BytesInUse != charge {
		t.Errorf("after encoding a %d-byte PNG: charge %d, bytes in use %d, want %d",
			len(png), f.Bytes(), c.Stats().BytesInUse, charge)
	}
}

// TestFrameCacheFlush drops ready frames but leaves reservations.
func TestFrameCacheFlush(t *testing.T) {
	w, h := 8, 8
	c := NewFrameCache(1 << 20)
	renderInto(c, "ready", w, h)
	finish := inFlight(t, c, "pending", w, h)
	c.Flush()
	if _, ok := c.Get(rq("ready")); ok {
		t.Error("flushed frame still served")
	}
	st := c.Stats()
	if st.BytesInUse != img.RawBytes(w, h) {
		t.Errorf("bytes in use = %d, want the pending reservation only", st.BytesInUse)
	}
	finish(mkFrame(w, h), nil)
	if _, ok := c.Get(rq("pending")); !ok {
		t.Error("reservation did not survive the flush")
	}
}

// TestFramePNGConcurrent: requests sharing a cached frame may ask for its
// PNG at once; every one gets the one encoding, byte for byte
// img.EncodePNG's. Run under -race in CI.
func TestFramePNGConcurrent(t *testing.T) {
	im := img.New(24, 16, vec.V4{})
	im.Set(3, 5, vec.New4(0.5, 0.25, 1, 1))
	f := frameOf(im)
	var want bytes.Buffer
	if err := im.EncodePNG(&want); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			png, err := f.PNG()
			if err != nil {
				t.Error(err)
			}
			got[g] = png
		}()
	}
	wg.Wait()
	for g, png := range got {
		if !bytes.Equal(png, want.Bytes()) || &png[0] != &got[0][0] {
			t.Errorf("goroutine %d got %d bytes, not the one %d-byte encoding", g, len(png), want.Len())
		}
	}
}
