package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/sim"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume/dataset"
)

// gatedRender stubs core.RenderOn with a gate the test controls: every
// call signals entered and blocks until release closes.
type gatedRender struct {
	mu      sync.Mutex
	calls   int
	entered chan struct{} // buffered; one token per call
	release chan struct{}
	fail    error
}

func newGatedRender() *gatedRender {
	return &gatedRender{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gatedRender) fn(spec cluster.Spec, opt core.Options, devWorkers int) (*core.Result, sim.Time, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.release
	if g.fail != nil {
		return nil, 0, g.fail
	}
	im := img.New(opt.Width, opt.Height, vec.V4{X: 0.5, W: 1})
	return &core.Result{Image: im, Runtime: sim.Second}, sim.Second, nil
}

func (g *gatedRender) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// directDigest renders a request, spelled out in full, straight through
// core.RenderOn with options built from the dataset, its preset transfer
// function and the orbit camera — not from the service's JobSpec — and
// returns the image digest: an independent reference for served bits.
func directDigest(t *testing.T, spec cluster.Spec, req Request) string {
	t.Helper()
	src, err := dataset.New(req.Dataset, dataset.PaperDims(req.Dataset, req.Edge))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := transfer.Preset(dataset.TFName(req.Dataset))
	if err != nil {
		t.Fatal(err)
	}
	cam, err := core.OrbitCamera(src, req.Width, req.Height, req.Orbit)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.RenderOn(spec, core.Options{
		Source: src, TF: tf, Width: req.Width, Height: req.Height, Camera: cam,
		GPUs: req.GPUs, Shading: req.Shading,
		StepVoxels: req.StepVoxels, TerminationAlpha: req.TerminationAlpha,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Image.Digest()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceCoalesces arranges a deterministic storm: a leader blocked
// inside the render plus N followers on the same key — exactly one
// render happens, everyone shares its frame, and each follower's
// response says X-Gvmr-Served: coalesced.
func TestServiceCoalesces(t *testing.T) {
	g := newGatedRender()
	s := newTestService(t, Config{GPUs: 2, Workers: 1})
	s.renderOn = g.fn
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	h := s.Handler()

	type out struct {
		digest string
		via    ServedVia
		err    error
	}
	results := make(chan out, 5)
	go func() {
		f, via, err := s.Render(context.Background(), req)
		if err != nil {
			results <- out{err: err}
			return
		}
		results <- out{f.Digest, via, nil}
	}()
	<-g.entered // leader is inside the render
	// The followers come in over HTTP, which names how each was served.
	for i := 0; i < 4; i++ {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/render?dataset=skull&edge=16&size=32&format=raw", nil))
			if rec.Code != http.StatusOK {
				results <- out{err: fmt.Errorf("follower: HTTP %d: %s", rec.Code, rec.Body)}
				return
			}
			results <- out{rec.Header().Get(HeaderDigest), ServedVia(rec.Header().Get(HeaderServed)), nil}
		}()
	}
	waitFor(t, "4 followers", func() bool { return s.cache.Stats().Joins == 4 })
	close(g.release)

	vias := map[ServedVia]int{}
	var digest string
	for i := 0; i < 5; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		vias[r.via]++
		if digest == "" {
			digest = r.digest
		} else if r.digest != digest {
			t.Error("coalesced frames differ")
		}
	}
	if g.count() != 1 {
		t.Errorf("render called %d times, want 1", g.count())
	}
	if vias[ViaRender] != 1 || vias[ViaCoalesced] != 4 {
		t.Errorf("served vias = %v, want 1 render + 4 coalesced", vias)
	}
	st := s.Stats()
	if st.Renders != 1 || st.Coalesced != 4 || st.Requests != 5 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServiceCacheHit: a repeated request is served from the frame cache
// without a second render; a distinct request renders again.
func TestServiceCacheHit(t *testing.T) {
	g := newGatedRender()
	close(g.release) // never block
	s := newTestService(t, Config{GPUs: 2, Workers: 1})
	s.renderOn = g.fn
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	f1, via1, err := s.Render(context.Background(), req)
	if err != nil || via1 != ViaRender {
		t.Fatalf("first render: via=%v err=%v", via1, err)
	}
	f2, via2, err := s.Render(context.Background(), req)
	if err != nil || via2 != ViaCache {
		t.Fatalf("second render: via=%v err=%v", via2, err)
	}
	if f1 != f2 {
		t.Error("cache hit returned a different frame")
	}
	req.Orbit = 90
	if _, via3, err := s.Render(context.Background(), req); err != nil || via3 != ViaRender {
		t.Fatalf("distinct request: via=%v err=%v", via3, err)
	}
	if g.count() != 2 {
		t.Errorf("render called %d times, want 2", g.count())
	}
	if st := s.Stats(); st.Cache.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Cache.Hits)
	}
}

// TestServiceDisabledCacheStillCoalesces: with the cache off, sequential
// duplicates re-render but the coalescer still dedupes concurrent ones.
func TestServiceDisabledCacheStillCoalesces(t *testing.T) {
	g := newGatedRender()
	close(g.release)
	s := newTestService(t, Config{GPUs: 2, Workers: 1, FrameCacheBytes: -1})
	s.renderOn = g.fn
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	for i := 0; i < 2; i++ {
		if _, via, err := s.Render(context.Background(), req); err != nil || via != ViaRender {
			t.Fatalf("render %d: via=%v err=%v", i, via, err)
		}
	}
	if g.count() != 2 {
		t.Errorf("render called %d times, want 2 (cache disabled)", g.count())
	}
}

// TestServiceAdmission429: with one worker and a one-slot queue, a third
// distinct render is rejected immediately with ErrOverloaded.
func TestServiceAdmission429(t *testing.T) {
	g := newGatedRender()
	s := newTestService(t, Config{GPUs: 2, Workers: 1, MaxQueue: 1})
	s.renderOn = g.fn
	mkReq := func(orbit float64) Request {
		return Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32, Orbit: orbit}
	}
	errs := make(chan error, 2)
	go func() { _, _, err := s.Render(context.Background(), mkReq(1)); errs <- err }()
	<-g.entered // A holds the worker slot
	go func() { _, _, err := s.Render(context.Background(), mkReq(2)); errs <- err }()
	waitFor(t, "B admitted and queued", func() bool { return len(s.queue) == 2 })

	_, _, err := s.Render(context.Background(), mkReq(3))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third render: %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.QueueDepth != 1 || st.InFlight != 1 {
		t.Errorf("stats = %+v", st)
	}
	close(g.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Capacity freed: a new render is admitted again.
	if _, _, err := s.Render(context.Background(), mkReq(4)); err != nil {
		t.Fatal(err)
	}
}

// TestServiceDrain: Close rejects new renders, waits for the in-flight
// one, and unblocks queued waiters with ErrDraining.
func TestServiceDrain(t *testing.T) {
	g := newGatedRender()
	s := newTestService(t, Config{GPUs: 2, Workers: 1, MaxQueue: 4})
	s.renderOn = g.fn
	mkReq := func(orbit float64) Request {
		return Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32, Orbit: orbit}
	}
	inflightErr := make(chan error, 1)
	go func() { _, _, err := s.Render(context.Background(), mkReq(1)); inflightErr <- err }()
	<-g.entered
	queuedErr := make(chan error, 1)
	go func() { _, _, err := s.Render(context.Background(), mkReq(2)); queuedErr <- err }()
	waitFor(t, "queued waiter", func() bool { return len(s.queue) == 2 })

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	// The queued waiter is kicked out by the drain.
	if err := <-queuedErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued render: %v, want ErrDraining", err)
	}
	// New renders are rejected while draining.
	if _, _, err := s.Render(context.Background(), mkReq(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("new render during drain: %v, want ErrDraining", err)
	}
	close(g.release)
	if err := <-inflightErr; err != nil {
		t.Fatalf("in-flight render during drain: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := s.Render(context.Background(), mkReq(4)); !errors.Is(err, ErrDraining) {
		t.Fatalf("render after Close: %v, want ErrDraining", err)
	}
}

// TestServiceAbandonedRequestStillCaches: a caller whose context is
// cancelled gets its own ctx error immediately, but the detached render
// completes and commits to the cache for the next request.
func TestServiceAbandonedRequestStillCaches(t *testing.T) {
	g := newGatedRender()
	s := newTestService(t, Config{GPUs: 2, Workers: 1})
	s.renderOn = g.fn
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	nReq := req
	if _, err := nReq.normalize(s); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { _, _, err := s.Render(ctx, req); errc <- err }()
	<-g.entered // the render is in flight
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request: %v, want context.Canceled", err)
	}
	close(g.release)
	waitFor(t, "detached render to commit", func() bool {
		_, ok := s.cache.Get(nReq)
		return ok
	})
	if _, via, err := s.Render(context.Background(), req); err != nil || via != ViaCache {
		t.Fatalf("post-abandon request: via=%v err=%v", via, err)
	}
	if g.count() != 1 {
		t.Errorf("render called %d times, want 1", g.count())
	}
	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("errors = %d, want 0 (client cancellation is not a server error)", st.Errors)
	}
}

// TestServiceRenderFailure: render errors propagate, are not cached, and
// followers share them.
func TestServiceRenderFailure(t *testing.T) {
	g := newGatedRender()
	g.fail = errors.New("synthetic render failure")
	close(g.release)
	s := newTestService(t, Config{GPUs: 2, Workers: 1})
	s.renderOn = g.fn
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	if _, _, err := s.Render(context.Background(), req); err == nil {
		t.Fatal("render failure not propagated")
	}
	st := s.Stats()
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	if st.Cache.BytesInUse != 0 {
		t.Errorf("failed render left %d cache bytes reserved", st.Cache.BytesInUse)
	}
	// Recovery: a later request re-renders.
	g.fail = nil
	if _, via, err := s.Render(context.Background(), req); err != nil || via != ViaRender {
		t.Fatalf("recovery render: via=%v err=%v", via, err)
	}
}

// TestServiceValidation: bad requests fail fast with ErrInvalid.
func TestServiceValidation(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2})
	cases := []Request{
		{Dataset: "nonesuch"},
		{Dataset: "skull", Edge: 4},
		{Dataset: "skull", Edge: 9999},
		{Dataset: "skull", Width: 100000, Height: 100000},
		// w*h overflows int64? No — but it overflows int32 and wraps a
		// naive int product; must be rejected, not panic the renderer.
		{Dataset: "skull", Width: 3037000500, Height: 3037000500},
		{Dataset: "skull", GPUs: 99},
		{Dataset: "skull", StepVoxels: -3},
		{Dataset: "skull", StepVoxels: float32(math.NaN())},
		{Dataset: "skull", Orbit: math.NaN()},
		{Dataset: "skull", Orbit: math.Inf(1)},
		{Dataset: "skull", TerminationAlpha: 2},
		{Dataset: "skull", TerminationAlpha: float32(math.NaN())},
	}
	for i, req := range cases {
		if _, _, err := s.Render(context.Background(), req); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d (%+v): err = %v, want ErrInvalid", i, req, err)
		}
	}
}

// TestRequestKeyNormalization: different spellings of the same frame
// normalize to one Request value, the cache key; different frames do not.
func TestRequestKeyNormalization(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2})
	keyOf := func(r Request) Request {
		t.Helper()
		if _, err := r.normalize(s); err != nil {
			t.Fatal(err)
		}
		return r
	}
	imp := keyOf(Request{Dataset: "skull", Edge: 64, Width: 256})
	exp := keyOf(Request{Dataset: "skull", Edge: 64, Width: 256, Height: 256,
		GPUs: 2, StepVoxels: 1, TerminationAlpha: 0.98})
	if imp != exp {
		t.Errorf("defaulted key %+v != explicit key %+v", imp, exp)
	}
	if keyOf(Request{Dataset: "skull", Edge: 64, Width: 256, Orbit: 1}) == imp {
		t.Error("different cameras share a key")
	}
	if keyOf(Request{Dataset: "skull", Edge: 64, Width: 256, Shading: true}) == imp {
		t.Error("different quality shares a key")
	}
	// == is IEEE equality, so orbit -0 and +0 share a key: they are the
	// same view and render the same bits.
	if keyOf(Request{Dataset: "skull", Edge: 64, Width: 256, Orbit: math.Copysign(0, -1)}) != imp {
		t.Error("orbit -0 and +0 do not share a key")
	}
}

// TestServiceRealRenderMatchesDirect drives the real render path (no
// stub) and checks the served frame is bit-identical to a direct
// core.RenderOn of the same request — the serving stack must not perturb
// the renderer's output.
func TestServiceRealRenderMatchesDirect(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2, Workers: 2})
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32, Shading: true}
	f, via, err := s.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if via != ViaRender {
		t.Fatalf("served via %v", via)
	}
	if frameImage(t, f).MeanLuminance() <= 0 {
		t.Error("served a black frame")
	}
	direct := directDigest(t, s.spec, Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32,
		Shading: true, GPUs: 2, StepVoxels: 1, TerminationAlpha: 0.98})
	if direct != f.Digest {
		t.Error("served frame differs from a direct render")
	}
	if png, err := f.PNG(); err != nil || len(png) == 0 {
		t.Errorf("no PNG encoded: %v", err)
	}
}

// TestCachedFrameIsCompact: the frame cache keeps a render in compact
// form and charges it that plus the PNG bound. A skull orbit frame at the
// cluster benchmark's 176² is mostly background, so it holds under a
// quarter of its raw framebuffer — and still writes the digested bits.
func TestCachedFrameIsCompact(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2, Workers: 2})
	req := Request{Dataset: "skull", Edge: 128, Width: 176, Height: 176, Orbit: 27, Shading: true}
	f, via, err := s.Render(context.Background(), req)
	if err != nil || via != ViaRender {
		t.Fatalf("render: via %v, %v", via, err)
	}
	entries := s.cache.Entries()
	if len(entries) != 1 || !entries[0].Ready || entries[0].Val != f {
		t.Fatalf("the render left %d cache entries, want its frame", len(entries))
	}
	raw, bound := img.RawBytes(176, 176), img.PNGBound(176, 176)
	if got, want := entries[0].Bytes, f.Pixels.Bytes()+bound; got != want {
		t.Errorf("frame charged %d bytes, want compact %d + PNG bound %d", got, f.Pixels.Bytes(), bound)
	}
	if f.Pixels.Bytes() > raw/4 {
		t.Errorf("compact frame holds %d bytes, over a quarter of the raw %d", f.Pixels.Bytes(), raw)
	}
	if frameImage(t, f).Digest() != f.Digest {
		t.Error("the compact frame does not write the digested render")
	}
}
