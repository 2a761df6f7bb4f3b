package server

import (
	"bytes"
	"sync"
	"time"

	"gvmr/internal/cache"
	"gvmr/internal/img"
	"gvmr/internal/sim"
)

// Frame is one rendered frame: the float framebuffer the renderer
// composited, kept in compact form (its background once, plus the pixels
// that differ from it), its digest, and the virtual-time figures of
// merit. Every response is written from the compact form. Its PNG
// encoding is made on the first PNG response and kept, so a frame only
// ever served raw never pays for one. Frames are immutable once built
// (the PNG aside, which is made once under its own sync.Once); the cache
// and every response share them.
type Frame struct {
	Width, Height int
	Pixels        *img.Compact
	// Digest is the SHA-256 of the exact float32 framebuffer bits
	// (img.Image.Digest of the full render) — responses carry it so
	// clients can verify served bits against a direct render.
	Digest string
	// Runtime is the frame's virtual duration on the simulated cluster;
	// FPS/VPSMillions are the paper's figures of merit for it.
	Runtime     sim.Time
	FPS         float64
	VPSMillions float64
	// RenderWall is the host wall-clock the render cost (zero for frames
	// served from cache).
	RenderWall time.Duration
	// Degraded marks a brownout frame: the distributed render missed its
	// deadline and the service (with Config.AllowDegraded) served a
	// coarser local render instead. Degraded frames are never cached —
	// the full-quality request must stay honest.
	Degraded bool

	pngOnce sync.Once
	png     []byte
	pngErr  error
}

// PNG returns the frame's PNG encoding, encoding it on the first call.
func (f *Frame) PNG() ([]byte, error) {
	f.pngOnce.Do(func() {
		var buf bytes.Buffer
		f.pngErr = f.Pixels.EncodePNG(&buf)
		f.png = buf.Bytes()
	})
	return f.png, f.pngErr
}

// Bytes is the cache charge of a frame: its compact framebuffer plus an
// upper bound on its PNG, so the budget holds whether or not the PNG is
// made.
func (f *Frame) Bytes() int64 { return f.Pixels.Bytes() + img.PNGBound(f.Width, f.Height) }

// reserveBytes is what a w×h frame's render reserves before it is drawn:
// the raw framebuffer plus the PNG bound, which bounds any frame's charge.
func reserveBytes(w, h int) int64 { return img.RawBytes(w, h) + img.PNGBound(w, h) }

// DefaultFrameCacheBytes is the rendered-frame cache budget when
// Config.FrameCacheBytes is zero.
const DefaultFrameCacheBytes = 256 << 20

// FrameCache is the bounded build-once cache (package cache) of rendered
// frames, keyed by the normalized Request itself: requests that normalize
// to equal values render bit-identical frames. A build in flight is the
// request coalescer's call: equal requests wait for the one render, and its bytes are
// reserved so concurrent renders cannot overshoot the budget. A disabled
// cache, or one whose budget is held by renders in flight, still
// coalesces; it just keeps nothing.
type FrameCache = cache.Cache[Request, *Frame]

// NewFrameCache builds a cache bounded to capacity bytes of frame data;
// capacity <= 0 disables it.
func NewFrameCache(capacity int64) *FrameCache { return cache.New[Request, *Frame](capacity) }

// FrameCacheStats is a snapshot of frame-cache activity. A request counts
// as exactly one hit or one miss; Bypassed counts renders that could not
// reserve budget.
type FrameCacheStats = cache.Stats
