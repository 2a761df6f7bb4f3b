package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gvmr/internal/cache"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/resilience"
	"gvmr/internal/sim"
	"gvmr/internal/volume/dataset"
)

// Request addresses one frame: a built-in dataset (which also selects its
// transfer-function preset), the image size, a camera on the fitted
// orbit, and the quality knobs. Normalized, it is the frame's identity: a
// plain comparable value that keys both the coalescer and the frame
// cache. What the service renders is the dist.JobSpec normalize resolves
// it into.
type Request struct {
	Dataset string  // built-in dataset + TF preset name
	Edge    int     // dataset cube edge (paper aspect for plume)
	Width   int     // image width (pixels)
	Height  int     // image height
	Orbit   float64 // camera: degrees along the fitted orbit
	GPUs    int     // devices used (0 = whole cluster)
	Shading bool

	StepVoxels       float32 // 0 = 1.0
	TerminationAlpha float32 // 0 = 0.98

	// BricksPerGPU scales the bricking policy (0 = the default 1, the
	// paper's regime). Partition and Parts name a registered brick
	// partition scheme ("" = the convex one-unit-per-brick default):
	// e.g. "interleave" with 2 parts groups bricks into two non-convex
	// checkerboard units. All three are part of the frame identity —
	// partitioned frames are byte-identical to convex ones by the §12
	// argument, but the fleet topology and stats differ, and aliasing
	// them in the cache would mask exactly the equality the golden
	// battery is meant to prove.
	BricksPerGPU int
	Partition    string
	Parts        int
}

// normalize fills the request's defaults, so that two spellings of the
// same frame become one Request value, and resolves it into the job that
// renders it. It checks only what the service alone knows — its cluster
// size, a finite orbit, parts without a scheme; every bound the job shares
// with /map is JobSpec.Validate's, the same check the workers run.
func (r *Request) normalize(s *Service) (dist.JobSpec, error) {
	if r.Dataset == "" {
		r.Dataset = dataset.Skull
	}
	if d, ok := dataset.NativeDims(r.Dataset); ok {
		// File-backed volumes have fixed on-disk dims; canonicalize the
		// edge to the largest one so every spelling of a request against
		// the same file shares one frame-cache identity.
		r.Edge = max(d.X, max(d.Y, d.Z))
	} else if r.Edge == 0 {
		r.Edge = 64
	}
	if r.Width == 0 {
		r.Width = 256
	}
	if r.Height == 0 {
		r.Height = r.Width
	}
	gpus := s.spec.Nodes * s.spec.GPUsPerNode
	if r.GPUs == 0 {
		r.GPUs = gpus
	}
	if r.StepVoxels == 0 {
		r.StepVoxels = 1
	}
	if r.TerminationAlpha == 0 {
		r.TerminationAlpha = 0.98
	}
	if r.BricksPerGPU == 0 {
		r.BricksPerGPU = 1
	}
	switch {
	case r.GPUs > gpus:
		return dist.JobSpec{}, fmt.Errorf("server: %d GPUs requested, cluster has %d", r.GPUs, gpus)
	case math.IsNaN(r.Orbit) || math.IsInf(r.Orbit, 0):
		return dist.JobSpec{}, fmt.Errorf("server: orbit %v is not a finite angle", r.Orbit)
	case r.Partition == "" && r.Parts != 0:
		return dist.JobSpec{}, fmt.Errorf("server: parts=%d without a partition scheme", r.Parts)
	}
	job := dist.JobSpec{
		Dataset: r.Dataset, Edge: r.Edge,
		Width: r.Width, Height: r.Height,
		GPUs: r.GPUs, Shading: r.Shading,
		StepVoxels: r.StepVoxels, TerminationAlpha: r.TerminationAlpha,
	}
	// The default bricking (1 per GPU) is spelled as the absent field.
	if r.BricksPerGPU != 1 {
		job.BricksPerGPU = r.BricksPerGPU
	}
	if r.Partition != "" {
		job.Partition = &dist.PartitionSpec{Scheme: r.Partition, Parts: r.Parts}
	}
	src, err := dataset.New(r.Dataset, dataset.PaperDims(r.Dataset, r.Edge))
	if err != nil {
		return job, err
	}
	cam, err := core.OrbitCamera(src, r.Width, r.Height, r.Orbit)
	if err != nil {
		return job, err
	}
	job.Camera = dist.CameraFrom(cam)
	return job, job.Validate(s.cfg.MaxEdge, s.cfg.MaxPixels)
}

// ServedVia says how a request was satisfied.
type ServedVia string

// ServedVia values.
const (
	ViaCache     ServedVia = "cache"     // frame cache hit
	ViaCoalesced ServedVia = "coalesced" // shared an in-flight render
	ViaRender    ServedVia = "render"    // rendered fresh
)

// servedVia names how the frame cache came by a request's frame (a Hit
// from Load: the frame was kept between the request's Get and its Load).
var servedVia = [...]ServedVia{cache.Hit: ViaCache, cache.Joined: ViaCoalesced, cache.Built: ViaRender}

// RenderOptions carries the per-request overload policy. It is policy,
// not identity: two requests that differ only here share one cache entry
// and one coalesced render, which is exactly why it must never become a
// Request field.
type RenderOptions struct {
	// Priority is the admission class this request sheds at (zero value
	// is Speculative, the first to go; interactive callers must say so).
	Priority resilience.Priority
	// Deadline bounds the render end to end (0 = Config.DefaultDeadline;
	// 0 there too = unbounded).
	Deadline time.Duration
}

// Render serves one frame: from the cache, from a render of its request
// already in flight, or from an admitted render of its own. It is safe
// for any number of concurrent callers. The returned Frame is shared and
// immutable. via reports how the request was served.
// Render is the plain-priority path: interactive class, default deadline.
func (s *Service) Render(ctx context.Context, req Request) (f *Frame, via ServedVia, err error) {
	return s.RenderWith(ctx, req, RenderOptions{Priority: resilience.Interactive})
}

// RenderWith is Render with an explicit overload policy.
func (s *Service) RenderWith(ctx context.Context, req Request, po RenderOptions) (f *Frame, via ServedVia, err error) {
	job, err := req.normalize(s)
	if err != nil {
		return nil, "", invalidRequestError{err}
	}
	start := time.Now()
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()
	defer func() {
		if err == nil {
			s.lat.add(time.Since(start))
		} else if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDraining) &&
			!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.mu.Lock()
			s.errored++
			s.mu.Unlock()
		}
	}()

	if f, ok := s.cache.Get(req); ok {
		return f, ViaCache, nil
	}
	// The Load runs detached from every caller's context: each caller —
	// the one whose Load renders included — waits on its own ctx, so an
	// impatient client abandons only its response, never the shared render
	// (which completes and is kept for whoever asks next).
	type loaded struct {
		f   *Frame
		how cache.Served
		err error
	}
	done := make(chan loaded, 1)
	go func() {
		f, how, err := s.cache.Load(req, reserveBytes(req.Width, req.Height), func(bool) (*Frame, int64, error) {
			return s.renderLeader(job, po)
		})
		done <- loaded{f, how, err}
	}()
	select {
	case <-ctx.Done():
		return nil, "", ctx.Err()
	case l := <-done:
		if l.err != nil {
			return nil, "", l.err
		}
		if l.how == cache.Joined {
			s.mu.Lock()
			s.coalesced++
			s.mu.Unlock()
		}
		return l.f, servedVia[l.how], nil
	}
}

// renderLeader is the path of the one request that renders a frame:
// admission, then the job — on the worker fleet, or as one core.RenderOn
// with the job's own options — then the digest on the full render, and
// the compact form the frame keeps; the PNG waits for the first response
// that serves one (Frame.PNG). It returns the frame with
// its cache charge — cache.Discard for a degraded frame, which
// is shared with the requests waiting on it but never kept. It runs
// detached from any request context, so an abandoned request never wastes
// the render; only Close interrupts the wait for a worker slot. The
// policy's deadline is enforced here (not from the caller's context):
// abandoning a request must not abort a shared render, but blowing its
// end-to-end budget must.
func (s *Service) renderLeader(job dist.JobSpec, po RenderOptions) (*Frame, int64, error) {
	if err := s.beginJob(); err != nil {
		return nil, 0, err
	}
	defer s.endJob()

	release, err := s.admit(context.Background(), po.Priority)
	if err != nil {
		return nil, 0, err
	}
	defer release()

	opt, err := job.Options()
	if err != nil {
		return nil, 0, err
	}

	deadline := po.Deadline
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}

	wallStart := time.Now()
	var res *core.Result
	var dur sim.Time
	degraded := false
	if s.coord != nil {
		// The render context carries the policy, detached from the caller:
		// priority rides to workers as a header, and the deadline (when
		// set) both times out the coordinator and propagates the shrinking
		// remainder to every map batch.
		ctx := resilience.WithPriority(context.Background(), po.Priority)
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		res, dur, err = s.coord.Render(ctx, job)
		if errors.Is(err, dist.ErrNoWorkers) {
			// The whole fleet drained or expired: render locally rather
			// than fail. Bits are identical either way, so the fallback is
			// invisible except in the stats.
			s.mu.Lock()
			s.localFallbacks++
			s.mu.Unlock()
			res, dur, err = s.renderOn(s.spec, opt, s.devWorkers)
		}
		if err != nil && s.cfg.AllowDegraded &&
			(errors.Is(err, dist.ErrDeadline) || errors.Is(err, context.DeadlineExceeded)) {
			// Brownout: the fleet blew the deadline, but the caller opted
			// into a coarser answer over no answer. Quadruple the ray step
			// (within the validated range) and render locally — typically
			// an order of magnitude cheaper. The frame is marked and never
			// cached: a later healthy render must not find degraded bits
			// under the full-quality key.
			dopt := opt
			dopt.StepVoxels *= 4
			if dopt.StepVoxels > 16 {
				dopt.StepVoxels = 16
			}
			res, dur, err = s.renderOn(s.spec, dopt, s.devWorkers)
			if err == nil {
				degraded = true
				s.res.DegradedFrame()
			}
		}
	} else {
		res, dur, err = s.renderOn(s.spec, opt, s.devWorkers)
	}
	wall := time.Since(wallStart)
	if err != nil {
		return nil, 0, err
	}
	f := &Frame{
		Width:       job.Width,
		Height:      job.Height,
		Pixels:      res.Image.Compact(),
		Digest:      res.Image.Digest(),
		Runtime:     dur,
		FPS:         res.FPS,
		VPSMillions: res.VPSMillions,
		RenderWall:  wall,
		Degraded:    degraded,
	}
	s.mu.Lock()
	s.renders++
	s.renderWall += wall
	s.mu.Unlock()
	if degraded {
		return f, cache.Discard, nil
	}
	return f, f.Bytes(), nil
}
