// Package server turns the gvmr library into a multi-tenant render
// service: an embeddable RenderService (and, via Handler, an HTTP API —
// cmd/gvmrd is the daemon around it) that serves rendered frames off the
// simulated multi-GPU cluster under concurrent load.
//
// Two mechanisms compose per request, in order:
//
//  1. the rendered-frame cache (FrameCache: the bounded build-once cache
//     the volume staging cache also is, sized by Config.FrameCacheBytes),
//     keyed by dataset + dims + camera + transfer function + quality — a
//     repeated view is a map lookup, and a render in flight is the entry
//     every identical request waits on, so a storm of them costs exactly
//     one render;
//  2. admission control — a bounded queue in front of a fixed-width
//     render-worker pool; when the queue is full new renders are
//     rejected immediately (HTTP 429) instead of piling up, and Close
//     drains gracefully.
//
// Underneath, every admitted request is one core.RenderOn job: an
// independent deterministic simulation on a fresh instance of the
// service's cluster spec, so identical requests produce bit-identical
// frames whether served from cache, coalesced, or re-rendered — the
// property the service tests and the CI smoke test assert end to end.
package server

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/membership"
	"gvmr/internal/resilience"
	"gvmr/internal/schedule"
	"gvmr/internal/sim"
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
	// GPUs is the simulated cluster size each render runs on, on the
	// calibrated cluster.AC(GPUs) hardware (default 4).
	GPUs int
	// Workers is the number of renders executing concurrently (0 =
	// GOMAXPROCS; device-level host cores are split across workers with
	// schedule.DeviceWorkers, as RenderFrames splits them).
	Workers int
	// MaxQueue bounds how many admitted renders may wait for a worker
	// (default 64). Beyond Workers+MaxQueue, Render fails fast with
	// ErrOverloaded.
	MaxQueue int
	// FrameCacheBytes budgets the rendered-frame cache (0 =
	// DefaultFrameCacheBytes; negative disables).
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
	// Zero takes the default budget; negative disables the cache.
	cacheBytes := max(cfg.FrameCacheBytes, 0)
	if cfg.FrameCacheBytes == 0 {
		cacheBytes = DefaultFrameCacheBytes
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
			Metrics:        s.res,
			// Plan grids with this service's spec: AC(cfg.GPUs), the
			// machine the wire and reduce charges model.
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
