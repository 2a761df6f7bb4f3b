package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gvmr/internal/cache"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/img"
	"gvmr/internal/resilience"
	"gvmr/internal/sim"
	"gvmr/internal/transfer"
	"gvmr/internal/volume/dataset"
)

// Request addresses one frame: a built-in dataset (which also selects its
// transfer-function preset), the image size, a camera on the fitted
// orbit, and the quality knobs. Its canonical key drives both the
// coalescer and the frame cache.
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

// normalize fills defaults and validates against the service limits, so
// that two spellings of the same frame produce the same key.
func (r *Request) normalize(s *Service) error {
	if r.Dataset == "" {
		r.Dataset = dataset.Skull
	}
	known := false
	for _, n := range dataset.Names() {
		if n == r.Dataset {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("server: unknown dataset %q (have %v)", r.Dataset, dataset.Names())
	}
	if d, ok := dataset.NativeDims(r.Dataset); ok {
		// File-backed volumes have fixed on-disk dims; canonicalize the
		// edge to the largest one so every spelling of a request against
		// the same file shares one frame-cache identity.
		r.Edge = max(d.X, max(d.Y, d.Z))
	} else if r.Edge == 0 {
		r.Edge = 64
	}
	if r.Edge < 8 || r.Edge > s.cfg.MaxEdge {
		return fmt.Errorf("server: edge %d outside [8, %d]", r.Edge, s.cfg.MaxEdge)
	}
	if r.Width == 0 {
		r.Width = 256
	}
	if r.Height == 0 {
		r.Height = r.Width
	}
	// Each dimension is bounded before the product so a crafted w*h can
	// overflow neither this check nor the slice allocation in the
	// renderer.
	maxPx := int64(s.cfg.MaxPixels)
	if r.Width < 1 || r.Height < 1 ||
		int64(r.Width) > maxPx || int64(r.Height) > maxPx ||
		int64(r.Width)*int64(r.Height) > maxPx {
		return fmt.Errorf("server: image %dx%d outside (0, %d] pixels", r.Width, r.Height, s.cfg.MaxPixels)
	}
	if r.GPUs == 0 {
		r.GPUs = s.spec.Nodes * s.spec.GPUsPerNode
	}
	if r.GPUs < 1 || r.GPUs > s.spec.Nodes*s.spec.GPUsPerNode {
		return fmt.Errorf("server: %d GPUs requested, cluster has %d", r.GPUs, s.spec.Nodes*s.spec.GPUsPerNode)
	}
	if math.IsNaN(r.Orbit) || math.IsInf(r.Orbit, 0) {
		return fmt.Errorf("server: orbit %v is not a finite angle", r.Orbit)
	}
	if r.StepVoxels == 0 {
		r.StepVoxels = 1
	}
	// Written as a positive-range check so NaN fails it too.
	if !(r.StepVoxels >= 0.01 && r.StepVoxels <= 16) {
		return fmt.Errorf("server: step %v outside [0.01, 16]", r.StepVoxels)
	}
	if r.TerminationAlpha == 0 {
		r.TerminationAlpha = 0.98
	}
	if !(r.TerminationAlpha > 0 && r.TerminationAlpha <= 1) {
		return fmt.Errorf("server: termination alpha %v outside (0, 1]", r.TerminationAlpha)
	}
	if r.BricksPerGPU == 0 {
		r.BricksPerGPU = 1
	}
	if r.BricksPerGPU < 1 || r.BricksPerGPU > 64 {
		return fmt.Errorf("server: bricks-per-gpu %d outside [1, 64]", r.BricksPerGPU)
	}
	if r.Partition == "" {
		if r.Parts != 0 {
			return fmt.Errorf("server: parts=%d without a partition scheme", r.Parts)
		}
	} else if _, err := core.BuildPartition(r.Partition, r.Parts); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// key is the canonical identity of the frame this request addresses:
// dataset preset (data + transfer function) + dims + camera + quality.
// Requests with equal keys render bit-identical frames.
func (r *Request) key() string {
	part := ""
	if r.Partition != "" {
		part = fmt.Sprintf("%s:%d", r.Partition, r.Parts)
	}
	return fmt.Sprintf("%s|e%d|%dx%d|o%g|g%d|sh%t|st%g|ta%g|b%d|p%s",
		r.Dataset, r.Edge, r.Width, r.Height, r.Orbit, r.GPUs,
		r.Shading, r.StepVoxels, r.TerminationAlpha, r.BricksPerGPU, part)
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
// and one coalesced render, which is exactly why it must never leak into
// Request.key().
type RenderOptions struct {
	// Priority is the admission class this request sheds at (zero value
	// is Speculative, the first to go; interactive callers must say so).
	Priority resilience.Priority
	// Deadline bounds the render end to end (0 = Config.DefaultDeadline;
	// 0 there too = unbounded).
	Deadline time.Duration
}

// Render serves one frame: from the cache, from a render of its key
// already in flight, or from an admitted render of its own. It is safe
// for any number of concurrent callers. The returned Frame is shared and
// immutable. via reports how the request was served.
// Render is the plain-priority path: interactive class, default deadline.
func (s *Service) Render(ctx context.Context, req Request) (f *Frame, via ServedVia, err error) {
	return s.RenderWith(ctx, req, RenderOptions{Priority: resilience.Interactive})
}

// RenderWith is Render with an explicit overload policy.
func (s *Service) RenderWith(ctx context.Context, req Request, po RenderOptions) (f *Frame, via ServedVia, err error) {
	if err := req.normalize(s); err != nil {
		return nil, "", invalidRequestError{err}
	}
	key := req.key()
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

	if f, ok := s.cache.Get(key); ok {
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
		f, how, err := s.cache.Load(key, img.RawBytes(req.Width, req.Height), func(bool) (*Frame, int64, error) {
			return s.renderLeader(req, key, po)
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

// renderLeader is the path of the one request that renders a key:
// admission, then one core.RenderOn job, then PNG encoding. It returns the
// frame with its cache charge — cache.Discard for a degraded frame, which
// is shared with the requests waiting on it but never kept. It runs
// detached from any request context, so an abandoned request never wastes
// the render; only Close interrupts the wait for a worker slot. The
// policy's deadline is enforced here (not from the caller's context):
// abandoning a request must not abort a shared render, but blowing its
// end-to-end budget must.
func (s *Service) renderLeader(req Request, key string, po RenderOptions) (*Frame, int64, error) {
	if err := s.beginJob(); err != nil {
		return nil, 0, err
	}
	defer s.endJob()

	release, err := s.admit(po.Priority)
	if err != nil {
		return nil, 0, err
	}
	defer release()

	opt, err := s.options(req)
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
		job := dist.JobSpec{
			Dataset: req.Dataset, Edge: req.Edge,
			Width: req.Width, Height: req.Height,
			GPUs: req.GPUs, Shading: req.Shading,
			StepVoxels: req.StepVoxels, TerminationAlpha: req.TerminationAlpha,
			Camera: dist.CameraFrom(opt.Camera),
		}
		// The default bricking (1 per GPU) is spelled as the absent field.
		if req.BricksPerGPU != 1 {
			job.BricksPerGPU = req.BricksPerGPU
		}
		if req.Partition != "" {
			job.Partition = &dist.PartitionSpec{Scheme: req.Partition, Parts: req.Parts}
		}
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
	var png bytes.Buffer
	if err := res.Image.EncodePNG(&png); err != nil {
		return nil, 0, err
	}
	f := &Frame{
		Key:         key,
		Width:       req.Width,
		Height:      req.Height,
		Image:       res.Image,
		PNG:         png.Bytes(),
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

// options translates a normalized request into render options. The
// staging cache keys sources by tag+dims, so per-request source
// construction still shares one materialisation per dataset identity.
func (s *Service) options(req Request) (core.Options, error) {
	src, err := dataset.New(req.Dataset, dataset.PaperDims(req.Dataset, req.Edge))
	if err != nil {
		return core.Options{}, err
	}
	tf, err := transfer.Preset(dataset.TFName(req.Dataset))
	if err != nil {
		return core.Options{}, err
	}
	cam, err := core.OrbitCamera(src, req.Width, req.Height, req.Orbit)
	if err != nil {
		return core.Options{}, err
	}
	var part core.Partition
	if req.Partition != "" {
		if part, err = core.BuildPartition(req.Partition, req.Parts); err != nil {
			return core.Options{}, err
		}
	}
	return core.Options{
		Source: src, TF: tf,
		Width: req.Width, Height: req.Height,
		Camera:           cam,
		GPUs:             req.GPUs,
		Shading:          req.Shading,
		StepVoxels:       req.StepVoxels,
		TerminationAlpha: req.TerminationAlpha,
		BricksPerGPU:     req.BricksPerGPU,
		Partition:        part,
	}, nil
}
