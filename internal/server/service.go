// Package server turns the gvmr library into a multi-tenant render
// service: an embeddable RenderService (and, via Handler, an HTTP API —
// cmd/gvmrd is the daemon around it) that serves rendered frames off the
// simulated multi-GPU cluster under concurrent load.
//
// Two mechanisms compose per request, in order:
//
//  1. the rendered-frame cache (FrameCache: the bounded build-once cache
//     the volume staging cache also is, GVMR_FRAME_BYTES), keyed by
//     dataset + dims + camera + transfer function + quality — a repeated
//     view is a map lookup, and a render in flight is the entry every
//     identical request waits on, so a storm of them costs exactly one
//     render;
//  2. admission control — a bounded queue in front of a fixed-width
//     render-worker pool; when the queue is full new renders are
//     rejected immediately (HTTP 429) instead of piling up, and Close
//     drains gracefully.
//
// Underneath, every admitted request is one core.RenderOn job: an
// independent deterministic simulation on a fresh instance of the
// service's cluster spec, so identical requests produce bit-identical
// frames whether served from cache, coalesced, or re-rendered — the
// property the loadtest and the CI smoke test assert end to end.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"gvmr/internal/cache"
	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/img"
	"gvmr/internal/membership"
	"gvmr/internal/resilience"
	"gvmr/internal/schedule"
	"gvmr/internal/sim"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// Service errors, mapped to HTTP statuses by the handler.
var (
	// ErrOverloaded means the admission queue is full; retry later (429).
	ErrOverloaded = errors.New("server: overloaded, admission queue full")
	// ErrDraining means the service is shutting down (503).
	ErrDraining = errors.New("server: draining")
	// ErrInvalid marks request-validation failures (400).
	ErrInvalid = errors.New("server: invalid request")
)

// invalidRequestError keeps the specific validation message while
// matching errors.Is(err, ErrInvalid).
type invalidRequestError struct{ err error }

func (e invalidRequestError) Error() string { return e.err.Error() }
func (e invalidRequestError) Unwrap() error { return ErrInvalid }

// Config sizes a Service.
type Config struct {
	// GPUs is the simulated cluster size each render runs on (default 4).
	// Ignored when Spec is non-nil.
	GPUs int
	// Spec overrides the default calibrated cluster.AC(GPUs) hardware.
	Spec *cluster.Spec
	// Workers is the number of renders executing concurrently (0 =
	// GOMAXPROCS, resolved through the schedule pool policy; device-level
	// host cores are split across workers the same way RenderFrames
	// splits them).
	Workers int
	// MaxQueue bounds how many admitted renders may wait for a worker
	// (default 64). Beyond Workers+MaxQueue, Render fails fast with
	// ErrOverloaded.
	MaxQueue int
	// FrameCacheBytes budgets the rendered-frame cache (0 = honor
	// GVMR_FRAME_BYTES, else 256 MiB; negative disables).
	FrameCacheBytes int64
	// MaxPixels caps Width*Height per request (default 4096²).
	MaxPixels int
	// MaxEdge caps the dataset cube edge per request (default 512).
	MaxEdge int

	// WorkerAddrs turns the service into a distributed coordinator:
	// every admitted render fans its brick map-tasks out to these remote
	// gvmrd workers (their /map endpoint) and composites the returned
	// fragment stripes locally, instead of rendering in-process. Served
	// bits are identical either way — the distributed golden suite pins
	// that down. Empty means render locally.
	WorkerAddrs []string
	// HedgeAfter duplicates a straggling map batch onto another healthy
	// worker after this delay (0 = no hedging). Coordinator mode only.
	HedgeAfter time.Duration
	// AttemptTimeout bounds one map exchange with a worker (0 = the
	// coordinator default, 30s). Short values make a wedged worker's
	// circuit breaker trip quickly. Coordinator mode only.
	AttemptTimeout time.Duration
	// DistReduce moves the reduce phase onto the worker fleet: mappers
	// exchange fragment stripes peer-to-peer per pixel partition and the
	// coordinator collects near-final pixels instead of raw stripes.
	// Bits are identical either way; any exchange failure falls back to
	// the classic coordinator-local composite. Coordinator mode only.
	DistReduce bool
	// NoWireCompress asks the workers for raw stripes instead of the
	// columnar-compressed encoding on every hop. Coordinator mode only.
	NoWireCompress bool

	// DefaultDeadline bounds every render that arrives without its own
	// deadline (0 = unbounded, the historical behavior). The effective
	// deadline propagates to workers as a relative-millisecond
	// X-Gvmr-Deadline header, so a doomed frame stops consuming fleet
	// capacity at every layer at once.
	DefaultDeadline time.Duration
	// AllowDegraded opts the service into brownout mode: when a
	// distributed render misses its deadline, serve a coarser local frame
	// (larger ray step) marked Degraded instead of failing. Off by
	// default — golden and test paths must never see a degraded frame.
	AllowDegraded bool

	// AcceptJoins opens the membership control plane: workers may join
	// the fleet at runtime (POST /register + heartbeats), drain, and be
	// evicted on lease expiry. Static WorkerAddrs and joined workers mix
	// freely; with AcceptJoins and no WorkerAddrs the service starts as a
	// coordinator with an empty fleet and renders locally until the first
	// worker joins.
	AcceptJoins bool
	// HeartbeatEvery is the lease heartbeat interval assigned to joining
	// workers (default 2s); LeaseMisses is how many missed beats expire a
	// lease (default 3).
	HeartbeatEvery time.Duration
	LeaseMisses    int
}

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

// Service is the embeddable render service. Create with New, serve with
// Render (or the HTTP Handler), stop with Close.
type Service struct {
	cfg        Config
	spec       cluster.Spec
	workers    int
	devWorkers int

	sem   chan struct{} // render-worker slots
	queue chan struct{} // admission: workers + MaxQueue tokens

	cache *FrameCache
	lat   *latencyRing

	// res aggregates overload-policy counters (breaker opens, sheds,
	// degraded frames, …) across this service, its coordinator and its
	// worker half — one truth for /stats.
	res *resilience.Metrics

	// renderOn is core.RenderOn; tests stub it to control timing.
	renderOn func(spec cluster.Spec, opt core.Options, devWorkers int) (*core.Result, sim.Time, error)

	// worker serves the /map endpoint (every gvmrd is worker-capable);
	// coord, when non-nil, fans admitted renders out to remote workers.
	// registry (non-nil iff coord is) is the membership authority the
	// coordinator places against; in AcceptJoins mode its control-plane
	// endpoints are mounted on the HTTP handler.
	worker   *dist.Worker
	coord    *dist.Coordinator
	registry *membership.Registry

	mu         sync.Mutex
	draining   bool
	inflight   int
	drained    chan struct{} // closed when draining && inflight == 0
	closed     chan struct{} // closed on Close, kicks queued waiters
	readyProbe func() (bool, string)

	start                                  time.Time
	requests, renders, coalesced, rejected int64
	errored, drainRejected, mapJobs        int64
	localFallbacks                         int64
	renderWall                             time.Duration
}

// New builds a Service from cfg.
func New(cfg Config) (*Service, error) {
	if cfg.GPUs == 0 {
		cfg.GPUs = 4
	}
	spec := cluster.AC(cfg.GPUs)
	if cfg.Spec != nil {
		spec = *cfg.Spec
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.MaxPixels == 0 {
		cfg.MaxPixels = 4096 * 4096
	}
	if cfg.MaxEdge == 0 {
		cfg.MaxEdge = 512
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// An explicit budget wins (negative disables), else GVMR_FRAME_BYTES,
	// else the default.
	cacheBytes := max(cfg.FrameCacheBytes, 0)
	if cfg.FrameCacheBytes == 0 {
		cacheBytes = volume.BytesFromEnv("GVMR_FRAME_BYTES", DefaultFrameCacheBytes)
	}
	s := &Service{
		cfg:        cfg,
		spec:       spec,
		workers:    workers,
		devWorkers: schedule.DeviceWorkers(workers),
		sem:        make(chan struct{}, workers),
		queue:      make(chan struct{}, workers+cfg.MaxQueue),
		cache:      NewFrameCache(cacheBytes),
		lat:        newLatencyRing(8192),
		renderOn:   core.RenderOn,
		res:        &resilience.Metrics{},
		drained:    make(chan struct{}),
		closed:     make(chan struct{}),
		start:      time.Now(),
	}
	wk, err := dist.NewWorker(dist.WorkerConfig{
		Spec:       spec,
		DevWorkers: s.devWorkers,
		MaxEdge:    cfg.MaxEdge,
		MaxPixels:  cfg.MaxPixels,
		Metrics:    s.res,
	})
	if err != nil {
		return nil, err
	}
	s.worker = wk
	if len(cfg.WorkerAddrs) > 0 || cfg.AcceptJoins {
		s.registry = membership.New(membership.Config{
			HeartbeatInterval: cfg.HeartbeatEvery,
			MissLimit:         cfg.LeaseMisses,
		})
		coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
			Nodes:          cfg.WorkerAddrs, // static seeds; joins arrive live
			Registry:       s.registry,
			HedgeAfter:     cfg.HedgeAfter,
			AttemptTimeout: cfg.AttemptTimeout,
			DistReduce:     cfg.DistReduce,
			NoCompress:     cfg.NoWireCompress,
			Metrics:        s.res,
			// Plan grids with this service's spec, so a custom Spec works
			// as long as the workers run the same hardware description
			// (the grid-counts cross-check catches anything else).
			Spec: &spec,
		})
		if err != nil {
			return nil, err
		}
		s.coord = coord
		if cfg.AcceptJoins {
			// Placement sweeps leases inline; this only bounds how long a
			// dead node lingers in /stats between renders.
			go s.sweepLoop()
		}
	}
	return s, nil
}

// sweepLoop evicts expired leases in the background until Close.
func (s *Service) sweepLoop() {
	interval, _ := s.registry.Lease()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.registry.Sweep()
		case <-s.closed:
			return
		}
	}
}

// Registry exposes the membership authority (nil when the service is
// neither a static coordinator nor accepting joins).
func (s *Service) Registry() *membership.Registry { return s.registry }

// LoadSnapshot is the /stats-style load a worker's membership heartbeats
// carry to its coordinator.
func (s *Service) LoadSnapshot() membership.Load {
	s.mu.Lock()
	mapJobs := s.mapJobs
	s.mu.Unlock()
	inFlight := len(s.sem)
	depth := len(s.queue) - inFlight
	if depth < 0 {
		depth = 0
	}
	// Pressure is the admission-queue fill fraction: at 1 the next /map
	// this node receives is near-certain to be shed, so a coordinator
	// reading the heartbeat places there only as a last resort.
	var pressure float64
	if c := cap(s.queue); c > 0 {
		pressure = float64(len(s.queue)) / float64(c)
		if pressure > 1 {
			pressure = 1
		}
	}
	return membership.Load{InFlight: inFlight, QueueDepth: depth, MapJobs: mapJobs, Pressure: pressure}
}

// SetReadinessProbe installs an extra readiness input (the daemon wires
// the membership agent's state in: a worker that lost its lease or is
// draining reports not-ready while staying live).
func (s *Service) SetReadinessProbe(fn func() (ok bool, reason string)) {
	s.mu.Lock()
	s.readyProbe = fn
	s.mu.Unlock()
}

// Ready reports whether this node should receive new traffic. Liveness
// (/healthz) is separate and unconditional: a draining node is alive —
// restarting it would kill the in-flight work the drain exists to
// protect — it just must not be routed new requests.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	draining, probe := s.draining, s.readyProbe
	s.mu.Unlock()
	if draining {
		return false, "draining"
	}
	if probe != nil {
		if ok, reason := probe(); !ok {
			return false, reason
		}
	}
	return true, ""
}

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

// beginJob admits one unit of work against the drain state; every
// successful beginJob must be paired with endJob.
func (s *Service) beginJob() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.drainRejected++
		return ErrDraining
	}
	s.inflight++
	return nil
}

func (s *Service) endJob() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
}

// admit enforces the backpressure contract for one unit of work (a local
// render or a /map batch): claim a queue token immediately or fail with
// ErrOverloaded, then wait for a render-worker slot (Close interrupts the
// wait with ErrDraining). The token covers waiting AND working; the
// returned release frees slot then token.
//
// Shedding is by priority, lowest class first: speculative work (hedge
// duplicates) is refused once the queue is half full, batch at three
// quarters, and only interactive work may fill it — so under overload the
// capacity that remains serves the humans. The fill reads are racy
// against concurrent admits, which is fine: the thresholds are pressure
// valves, not invariants, and the queue send below is the hard bound.
func (s *Service) admit(pri resilience.Priority) (release func(), err error) {
	fill, capQ := len(s.queue), cap(s.queue)
	shed := false
	switch pri {
	case resilience.Speculative:
		shed = fill >= capQ/2
	case resilience.Batch:
		shed = fill >= capQ*3/4
	}
	if shed {
		s.res.Shed(pri)
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	select {
	case s.queue <- struct{}{}:
	default:
		s.res.Shed(pri)
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	select {
	case s.sem <- struct{}{}:
	case <-s.closed:
		<-s.queue
		return nil, ErrDraining
	}
	return func() {
		<-s.sem
		<-s.queue
	}, nil
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

// Close drains the service: new renders fail with ErrDraining
// (cache hits and coalesced joins of already-running renders still
// succeed), requests already admitted finish, and Close returns when the
// last one has. ctx bounds the wait.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	idle := s.inflight == 0
	s.mu.Unlock()
	if !already {
		close(s.closed)
		if idle {
			close(s.drained)
		}
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// LatencyStats summarise request latency in milliseconds. Count is the
// lifetime number of successful requests (cache hits, coalesced, and
// renders); Mean/P50/P99/Max all describe the recent window (the last
// 8192 requests), so they track current service health rather than a
// cold-start outlier forever.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// SummarizeLatency computes the nearest-rank quantiles, mean and max of
// samples (which it sorts in place); count is reported verbatim. The
// /stats endpoint and gvmrd loadtest share it so both records quantify
// latency identically.
func SummarizeLatency(samples []time.Duration, count int64) LatencyStats {
	st := LatencyStats{Count: count}
	if len(samples) == 0 {
		return st
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	st.MeanMs = float64(total) / float64(len(samples)) / 1e6
	st.P50Ms = float64(quantile(samples, 0.50)) / 1e6
	st.P99Ms = float64(quantile(samples, 0.99)) / 1e6
	st.MaxMs = float64(samples[len(samples)-1]) / 1e6
	return st
}

// Stats is the /stats snapshot.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueCapacity int     `json:"queue_capacity"` // waiting slots beyond the workers
	Draining      bool    `json:"draining"`
	Ready         bool    `json:"ready"`

	Requests  int64 `json:"requests"`
	Renders   int64 `json:"renders"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected_overload"`
	Errors    int64 `json:"errors"`
	// MapJobs counts /map batches served for remote coordinators (this
	// node acting as a cluster worker).
	MapJobs int64 `json:"map_jobs"`
	// PlaceholdersStripped counts placeholder fragments the worker layer
	// stripped from outgoing stripes — always zero unless a mapper bug
	// leaks the kernel-internal sentinel onto the wire path.
	PlaceholdersStripped int64 `json:"placeholders_stripped,omitempty"`
	// Exchange counts distributed-reduce activity on this node acting as
	// a reducer: stripe pushes received from peer mappers, collects
	// served to coordinators, and sessions expired or live. Omitted
	// until the first exchange touches this node.
	Exchange *dist.ExchangeStats `json:"exchange,omitempty"`

	// WorkerNodes and Dist describe coordinator mode: the current
	// registered worker count and the distributed-layer event counters.
	// Membership is the full registry view — per-node state (alive /
	// draining, capacity, load, lease age) plus lifetime join / drain /
	// eviction counters. LocalFallbacks counts renders served in-process
	// because no eligible worker existed.
	WorkerNodes    int                    `json:"worker_nodes,omitempty"`
	Dist           *dist.CoordinatorStats `json:"dist,omitempty"`
	Membership     *membership.Stats      `json:"membership,omitempty"`
	LocalFallbacks int64                  `json:"local_fallbacks,omitempty"`

	// Resilience is the overload-policy ledger: breaker opens, half-open
	// probes, sheds by priority class, retry-budget exhaustions, degraded
	// frames, and deadline aborts. Always present — a steady zero row is
	// itself the evidence the chaos tests assert against.
	Resilience *resilience.Snapshot `json:"resilience"`

	// InFlight renders hold worker slots; QueueDepth renders are admitted
	// and waiting for one.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`

	RenderWallSeconds float64 `json:"render_wall_seconds"`

	Cache   FrameCacheStats   `json:"frame_cache"`
	Staging volume.CacheStats `json:"staging_cache"`
	// Pager aggregates demand-paging counters over every registered
	// out-of-core (v2) volume file; omitted when none is registered.
	Pager   *volume.PagerStats `json:"pager,omitempty"`
	Latency LatencyStats       `json:"latency"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Workers:           s.workers,
		QueueCapacity:     cap(s.queue) - s.workers,
		Draining:          s.draining,
		Requests:          s.requests,
		Renders:           s.renders,
		Coalesced:         s.coalesced,
		Rejected:          s.rejected,
		Errors:            s.errored,
		MapJobs:           s.mapJobs,
		LocalFallbacks:    s.localFallbacks,
		RenderWallSeconds: s.renderWall.Seconds(),
	}
	s.mu.Unlock()
	st.Ready, _ = s.Ready()
	st.PlaceholdersStripped = s.worker.PlaceholdersStripped()
	if ex := s.worker.ExchangeStats(); ex != (dist.ExchangeStats{}) {
		st.Exchange = &ex
	}
	if s.coord != nil {
		st.WorkerNodes = s.coord.Nodes()
		ds := s.coord.Stats()
		st.Dist = &ds
		ms := s.registry.Stats()
		st.Membership = &ms
	}
	st.InFlight = len(s.sem)
	if d := len(s.queue) - st.InFlight; d > 0 {
		st.QueueDepth = d
	}
	st.Cache = s.cache.Stats()
	st.Staging = volume.Cache.Stats()
	st.Pager = dataset.FilePagerStats()
	st.Latency = s.lat.stats()
	rs := s.res.Snapshot()
	st.Resilience = &rs
	return st
}

// Resilience exposes the shared overload-policy counters (tests inject
// faults and assert on these).
func (s *Service) Resilience() *resilience.Metrics { return s.res }

// Draining reports whether Close has begun — a cheap flag read for
// health probes, without the full Stats snapshot.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// latencyRing keeps the last N request latencies and derives quantiles on
// demand — small, lock-cheap, good enough for a /stats endpoint.
type latencyRing struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	filled  bool
	count   int64
}

func newLatencyRing(n int) *latencyRing {
	return &latencyRing{samples: make([]time.Duration, n)}
}

func (l *latencyRing) add(d time.Duration) {
	l.mu.Lock()
	l.samples[l.next] = d
	l.next++
	if l.next == len(l.samples) {
		l.next = 0
		l.filled = true
	}
	l.count++
	l.mu.Unlock()
}

func (l *latencyRing) stats() LatencyStats {
	l.mu.Lock()
	n := l.next
	if l.filled {
		n = len(l.samples)
	}
	window := make([]time.Duration, n)
	copy(window, l.samples[:n])
	count := l.count
	l.mu.Unlock()
	return SummarizeLatency(window, count)
}

// quantile picks the nearest-rank quantile from sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
