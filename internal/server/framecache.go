package server

import (
	"time"

	"gvmr/internal/cache"
	"gvmr/internal/img"
	"gvmr/internal/sim"
)

// Frame is one rendered, encoded frame: the float framebuffer the
// renderer composited, its PNG encoding (done once, served many times),
// and the virtual-time figures of merit. Frames are immutable once built;
// the cache and every response share them.
type Frame struct {
	Width, Height int
	Image         *img.Image
	PNG           []byte
	// Digest is the SHA-256 of the exact float32 framebuffer bits
	// (img.Image.Digest) — responses carry it so clients can verify
	// served bits against a direct render.
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
}

// Bytes is the cache charge of a frame: raw framebuffer plus PNG.
func (f *Frame) Bytes() int64 {
	return img.RawBytes(f.Width, f.Height) + int64(len(f.PNG))
}

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
