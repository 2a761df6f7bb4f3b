package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/membership"
	"gvmr/internal/resilience"
	"gvmr/internal/sim"
)

// ErrNoWorkers means no eligible (alive, non-draining) worker node
// exists right now. Callers with local render capacity may fall back to
// it — the bits are identical either way.
var ErrNoWorkers = errors.New("dist: no eligible worker nodes")

// ErrDeadline marks work abandoned because the request's end-to-end
// deadline expired (a worker's 504, or the job context's own deadline).
// It is a property of the request's budget, not of any node: nothing is
// marked down, nothing is retried (a retry cannot beat an already-spent
// deadline), and the server layer may answer with a brownout frame when
// the operator allowed degraded serving.
var ErrDeadline = errors.New("dist: end-to-end deadline exceeded")

// ErrRetryBudget marks a batch failed fast because the coordinator's
// retry budget is exhausted: the fleet is sick enough that piling on
// more retries would amplify the outage instead of dodging it.
var ErrRetryBudget = errors.New("dist: retry budget exhausted")

// CoordinatorConfig sizes a Coordinator.
type CoordinatorConfig struct {
	// Nodes are static worker addresses ("host:port" or full URLs),
	// seeded into the membership registry as permanent members.
	Nodes []string
	// Registry, when non-nil, is the authoritative membership source:
	// workers join, drain and expire there, and every placement decision
	// consults its current snapshot. Nil builds a private static
	// registry from Nodes.
	Registry *membership.Registry
	// MaxAttempts bounds how many nodes one brick batch may be tried on
	// before the job fails (default 3 — a batch never retries the node
	// that failed it).
	MaxAttempts int
	// AttemptTimeout bounds one map exchange (default 30s). When the job
	// context carries a sooner deadline, the remaining attempts share
	// its remaining budget instead, so retry/hedge always gets its turn
	// inside the job budget. <0 disables the per-attempt bound.
	AttemptTimeout time.Duration
	// HedgeAfter launches a duplicate request to another healthy node
	// when a batch has produced no response for this long; the first
	// response wins and the loser is cancelled (default 0 = off).
	// Responses are bit-identical by construction, so hedging can never
	// change the image.
	HedgeAfter time.Duration
	// Breaker is the clock seam of the per-worker circuit breakers that
	// gate placement eligibility (closed→open→half-open on a sliding
	// error-rate window with fixed thresholds; DESIGN.md). Only the chaos
	// tests set it, to drive every transition on a fake clock; its
	// Metrics field is overwritten with Metrics. Breakers are a fast-path
	// hint only — membership state (lease expiry, drain) is the
	// authority on who is placeable at all.
	Breaker resilience.BreakerConfig
	// Metrics, when non-nil, receives the resilience events (breaker
	// opens, probes, budget exhaustion, deadline aborts) — the server
	// shares one instance across its admission gate and this
	// coordinator. Nil builds a private one (see Resilience).
	Metrics *resilience.Metrics
	// MaxResponseBytes bounds one batch response (default 1 GiB).
	MaxResponseBytes int64
	// DistReduce pushes the reduce phase onto the worker fleet: mappers
	// exchange pixel ranges peer-to-peer and the coordinator collects
	// near-final range images instead of every raw fragment. Requires at
	// least two placeable workers; any exchange failure (a peer dying
	// mid-exchange, a worker refusing the plan, a timeout) falls back to
	// the classic coordinator-local composite on a fresh membership
	// view — bits never change, only topology (DESIGN.md §11).
	DistReduce bool
	// Spec, when non-nil, is the hardware description used for grid
	// planning and the coordinator-side reduce/wire rates — set it when
	// the workers run a non-AC spec (the grid-counts cross-check turns
	// any remaining disagreement into a loud error). Nil uses the
	// calibrated AC cluster sized to each job's GPU count.
	Spec *cluster.Spec
}

// CoordinatorStats counts distributed-layer events; the /stats endpoint
// and the fault-injection tests read them.
type CoordinatorStats struct {
	Jobs      int64 `json:"jobs"`
	Batches   int64 `json:"batches"` // map batches sent (includes retries and hedges)
	Retries   int64 `json:"retries"` // batches re-placed after a failure
	Hedges    int64 `json:"hedges"`  // duplicate requests launched on stragglers
	HedgeWins int64 `json:"hedge_wins"`
	Corrupt   int64 `json:"corrupt"`    // responses failing the digest/shape check
	NodeDowns int64 `json:"node_downs"` // health transitions into backoff
	// ReduceJobs counts frames completed over the distributed-reduce
	// exchange; ReduceFallbacks counts exchanges abandoned for the
	// classic coordinator-local path (peer death, refused plans, timeouts).
	ReduceJobs      int64 `json:"reduce_jobs"`
	ReduceFallbacks int64 `json:"reduce_fallbacks"`
}

// Coordinator shards render jobs across remote gvmrd workers and
// composites the results locally. Worker membership is dynamic: every
// placement decision (initial, retry re-placement, hedge) consults the
// registry's current snapshot, so joins take effect on the next
// placement and a drained node receives zero new placements after its
// drain is acknowledged. Safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig
	reg *membership.Registry
	// budget caps cluster-wide retry and hedge amplification: every extra
	// attempt costs a token and only successes mint new ones, so a sick
	// fleet fast-fails instead of melting itself down.
	budget *resilience.RetryBudget

	mu sync.Mutex
	// breakers are the per-node circuit breakers, keyed by normalized
	// address. They survive membership churn, so a node that rejoins
	// after a crash still starts from its recent failure history.
	breakers map[string]*resilience.Breaker
	// ring cache, keyed by the registry snapshot version: membership
	// changes rebuild it (bounded-load cap is recomputed per render),
	// heartbeats don't.
	ringVer   uint64
	ringAddrs []string
	ringCache *ring

	jobs, batches, retries, hedges, hedgeWins, corrupt, nodeDowns atomic.Int64
	reduceJobs, reduceFallbacks                                   atomic.Int64
}

// NewCoordinator builds a coordinator over the given worker membership:
// a Registry (dynamic), static Nodes, or both (static seeds + joins).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Registry == nil && len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("dist: no worker nodes or membership registry")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = membership.New(membership.Config{})
	}
	if len(cfg.Nodes) > 0 {
		if err := reg.AddStatic(cfg.Nodes); err != nil {
			return nil, err
		}
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &resilience.Metrics{}
	}
	cfg.Breaker.Metrics = cfg.Metrics
	if cfg.MaxResponseBytes == 0 {
		cfg.MaxResponseBytes = 1 << 30
	}
	return &Coordinator{
		cfg:      cfg,
		reg:      reg,
		budget:   resilience.NewRetryBudget(cfg.Metrics),
		breakers: map[string]*resilience.Breaker{},
	}, nil
}

// Registry exposes the coordinator's membership authority (the server
// mounts its control-plane endpoints and reports its stats).
func (c *Coordinator) Registry() *membership.Registry { return c.reg }

// Resilience exposes the coordinator's policy-event counters (shared
// with the server when CoordinatorConfig.Metrics was set). Never nil.
func (c *Coordinator) Resilience() *resilience.Metrics { return c.cfg.Metrics }

// Stats snapshots the event counters.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Jobs:            c.jobs.Load(),
		Batches:         c.batches.Load(),
		Retries:         c.retries.Load(),
		Hedges:          c.hedges.Load(),
		HedgeWins:       c.hedgeWins.Load(),
		Corrupt:         c.corrupt.Load(),
		NodeDowns:       c.nodeDowns.Load(),
		ReduceJobs:      c.reduceJobs.Load(),
		ReduceFallbacks: c.reduceFallbacks.Load(),
	}
}

// Nodes returns the current registered member count (any state).
func (c *Coordinator) Nodes() int { return len(c.reg.Snapshot().Members) }

// batchOutcome is one successfully mapped batch.
type batchOutcome struct {
	node    string
	stripes []core.BrickStripe
	charges []core.UnitCharges // parallel to stripes
	bytes   int64
}

// Breakdown describes a distributed frame's virtual time and traffic.
// The time is the replayed engine job (DESIGN.md §9): Map is its
// makespan — map, exchange, sort and reduce, pipelined as in the paper,
// so no phase of it stands alone — and Wire the classic topology's one
// gather term into the coordinator's NIC; Reduce is zero, the reduce
// being inside the job. Map + Wire + Reduce is the frame's Runtime.
type Breakdown struct {
	Map    sim.Time `json:"map_seconds"`
	Wire   sim.Time `json:"wire_seconds"`
	Reduce sim.Time `json:"reduce_seconds"`

	// Batches and WireBytes count the real HTTP hops: map batches (retries
	// and hedges that won included) and collects, and the bytes they
	// carried into the coordinator plus, for an exchange, ExchangeBytes.
	Batches   int64 `json:"batches"`
	WireBytes int64 `json:"wire_bytes"`
	Fragments int64 `json:"fragments"`

	// Reduced marks a frame that completed over the distributed-reduce
	// exchange; ExchangeBytes is the fragment exchange the replayed job
	// models between its GPUs, and CollectBytes crossed the collect hop
	// into the coordinator (both counted in WireBytes).
	Reduced       bool  `json:"reduced,omitempty"`
	ExchangeBytes int64 `json:"exchange_bytes,omitempty"`
	CollectBytes  int64 `json:"collect_bytes,omitempty"`
}

// replay charges a frame's unit records as the engine's job (gather: plus
// the classic topology's gather term), fills bd's times and fragment
// count from it, and returns the frame's result around out.
func replay(plan *core.Replay, charges []core.UnitCharges, gather bool, out *img.Image, bd *Breakdown) (*core.Result, error) {
	res, err := plan.Run(charges, gather)
	if err != nil {
		return nil, err
	}
	res.Image = out
	bd.Map, bd.Wire = res.Stats.Makespan, res.Runtime-res.Stats.Makespan
	bd.Fragments = res.Stats.TotalEmitted
	return res, nil
}

// Render runs one distributed frame: plan, place, fan out, verify,
// composite. The image is byte-identical to a single-process
// core.Render of the same options regardless of node count, placement,
// retries, hedging or membership churn (DESIGN.md §9/§10).
func (c *Coordinator) Render(ctx context.Context, job JobSpec) (*core.Result, sim.Time, error) {
	res, _, err := c.RenderDetailed(ctx, job)
	if err != nil {
		return nil, 0, err
	}
	return res, res.Runtime, nil
}

// RenderDetailed is Render plus the virtual-time breakdown.
func (c *Coordinator) RenderDetailed(ctx context.Context, job JobSpec) (*core.Result, Breakdown, error) {
	c.jobs.Add(1)
	opt, err := job.Options()
	if err != nil {
		return nil, Breakdown{}, err
	}
	planSpec := job.PlanSpec()
	if c.cfg.Spec != nil {
		planSpec = *c.cfg.Spec
	}
	plan, err := core.PlanReplay(planSpec, opt)
	if err != nil {
		return nil, Breakdown{}, err
	}
	// Map tasks are units, not bricks: one per brick in the convex
	// default (counts coincide), the partition's unit count otherwise.
	// Placement, completion counting, validation and the replay all run
	// in unit IDs.
	numUnits := plan.Units()
	view, err := c.view()
	if err != nil {
		return nil, Breakdown{}, err
	}

	// Distributed reduce first when configured and the fleet can carry
	// it: mappers exchange pixel ranges peer-to-peer and the collects
	// return near-final range images. Only placeable nodes are reducers —
	// an open breaker would refuse its collect. Any exchange failure — a
	// peer dying mid-exchange, a worker refusing the plan, a timeout —
	// abandons the exchange and falls through to the classic path on a
	// fresh membership view: same bits, different topology.
	if reducers := view.placeableAddrs(); c.cfg.DistReduce && len(reducers) >= 2 {
		res, bd, rerr := c.renderReduce(ctx, job, opt, plan, view, reducers)
		if rerr == nil {
			c.reduceJobs.Add(1)
			return res, bd, nil
		}
		if ctx.Err() != nil {
			return nil, Breakdown{}, rerr
		}
		c.reduceFallbacks.Add(1)
		if view, err = c.view(); err != nil {
			return nil, Breakdown{}, err
		}
	}

	// Cancelling the job context tears down every in-flight exchange; the
	// buffered event channel lets stragglers deposit their terminal event
	// and exit without a reader.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type pendingBatch struct {
		bricks   []int
		target   string // node chosen at placement/re-placement time
		excluded map[string]bool
		attempts int
	}
	type event struct {
		out batchOutcome
		err error
	}
	// Every batch emits exactly one terminal event (a success, a hard
	// failure) or re-places itself into child batches, each of which does
	// the same; total events are bounded by bricks × attempts, so the
	// buffer guarantees no sender ever blocks.
	events := make(chan event, numUnits*(c.cfg.MaxAttempts+1)+4)
	var launch func(b pendingBatch)
	launch = func(b pendingBatch) {
		go func() {
			if b.target == "" || b.attempts >= c.cfg.MaxAttempts {
				events <- event{err: fmt.Errorf("dist: bricks %v undeliverable after %d attempts", b.bricks, b.attempts)}
				return
			}
			out, avoid, err := c.sendBatch(ctx, job, plan, b.bricks, b.target, b.excluded, b.attempts)
			if err == nil {
				events <- event{out: out}
				return
			}
			if ctx.Err() != nil {
				events <- event{err: ctx.Err()}
				return
			}
			// A deadline abort is terminal: the budget is spent, and a
			// retry on another node cannot un-spend it. The server layer
			// decides whether to answer with a brownout frame.
			if errors.Is(err, ErrDeadline) {
				events <- event{err: err}
				return
			}
			// Every re-placement costs a retry-budget token; an empty
			// bucket means the fleet is sick fleet-wide, and the job
			// fast-fails instead of amplifying the storm.
			if !c.budget.TryTake() {
				events <- event{err: fmt.Errorf("dist: bricks %v: %w (last error: %v)", b.bricks, ErrRetryBudget, err)}
				return
			}
			c.retries.Add(1)
			// Re-place the failed bricks over a FRESH membership view: a
			// worker that joined since the job started is a valid retry
			// target, one that drained or expired is not. The batch may
			// split if the ring walks diverge.
			rv, verr := c.view()
			if verr != nil {
				events <- event{err: fmt.Errorf("dist: bricks %v: %w after %v", b.bricks, verr, err)}
				return
			}
			regroup := make(map[string][]int)
			for _, id := range b.bricks {
				a := rv.pick(job, id, avoid, rv.placeable, anyNode)
				if a == "" {
					events <- event{err: fmt.Errorf("dist: bricks %v exhausted every worker: %w", b.bricks, err)}
					return
				}
				regroup[a] = append(regroup[a], id)
			}
			for a, bricks := range regroup {
				launch(pendingBatch{bricks: bricks, target: a, excluded: avoid, attempts: b.attempts + 1})
			}
		}()
	}
	for a, bricks := range view.placeInitial(job, numUnits) {
		launch(pendingBatch{bricks: bricks, target: a})
	}

	// Gather each unit's stripe and charges as responses land; the fold
	// and the replay walk units ascending, so arrival order reaches
	// neither the pixels nor the clock. A unit already seen (a late
	// duplicate from a raced retry) is dropped — duplicates are
	// bit-identical by canonicality anyway.
	runs := make([][]composite.Fragment, numUnits)
	charges := make([]core.UnitCharges, numUnits)
	seen := make([]bool, numUnits)
	bd := Breakdown{}
	for got := 0; got < numUnits; {
		select {
		case ev := <-events:
			if ev.err != nil {
				return nil, Breakdown{}, ev.err
			}
			for i, s := range ev.out.stripes {
				if !seen[s.Brick] {
					seen[s.Brick] = true
					runs[s.Brick] = s.Frags
					charges[s.Brick] = ev.out.charges[i]
					got++
				}
			}
			bd.WireBytes += ev.out.bytes
			bd.Batches++
		case <-ctx.Done():
			return nil, Breakdown{}, ctx.Err()
		}
	}
	out := core.BlankImage(opt)
	composite.FoldRange(runs, 0, int32(opt.Width*opt.Height), opt.Background, out.SetKey)
	res, err := replay(plan, charges, true, out, &bd)
	if err != nil {
		return nil, Breakdown{}, err
	}
	return res, bd, nil
}
