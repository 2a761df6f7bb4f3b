package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/membership"
	"gvmr/internal/resilience"
	"gvmr/internal/sim"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
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
	// Client is the HTTP client for map requests. The default carries no
	// overall timeout — per-attempt context deadlines (AttemptTimeout)
	// bound each exchange instead, so one hung worker stalls a batch for
	// one attempt budget, not a blanket client timeout.
	Client *http.Client
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
	// Breaker configures the per-worker circuit breakers that gate
	// placement eligibility (closed→open→half-open on a sliding
	// error-rate window; see resilience.BreakerConfig for the defaults).
	// Breakers are a fast-path hint only — membership state (lease
	// expiry, drain) is the authority on who is placeable at all.
	Breaker resilience.BreakerConfig
	// RetryBudget caps cluster-wide retry and hedge amplification: every
	// extra attempt costs a token and only successes mint new ones, so a
	// sick fleet fast-fails instead of melting itself down.
	RetryBudget resilience.BudgetConfig
	// Metrics, when non-nil, receives the resilience events (breaker
	// opens, probes, budget exhaustion, deadline aborts) — the server
	// shares one instance across its admission gate and this
	// coordinator. Nil builds a private one (see Resilience).
	Metrics *resilience.Metrics
	// Reducers is the number of local composite shards (default: the
	// eligible node count at render time); Partitioner routes pixels to
	// shards (default: the paper's per-pixel round robin). Neither
	// changes the image.
	Reducers    int
	Partitioner mapreduce.Partitioner
	// Replicas is the virtual-node count per worker on the placement
	// ring (default 64).
	Replicas int
	// MaxResponseBytes bounds one batch response (default 1 GiB).
	MaxResponseBytes int64
	// DistReduce pushes the reduce phase onto the worker fleet: mappers
	// exchange pixel ranges peer-to-peer and the coordinator collects
	// near-final range images instead of every raw fragment. Requires at
	// least two eligible workers; any exchange failure (a peer dying
	// mid-exchange, a worker refusing the plan, a timeout) falls back to
	// the classic coordinator-local composite on a fresh membership
	// view — bits never change, only topology (DESIGN.md §11).
	DistReduce bool
	// NoCompress asks for raw stripes (EncodingListV2) on every hop — map
	// responses, exchange pushes, collects — instead of the compressed
	// EncodingColumnar2.
	NoCompress bool
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
	cfg    CoordinatorConfig
	reg    *membership.Registry
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
	if cfg.Client == nil {
		cfg.Client = newClient()
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
	cfg.RetryBudget.Metrics = cfg.Metrics
	if cfg.Partitioner == nil {
		cfg.Partitioner = mapreduce.RoundRobin{}
	}
	if cfg.MaxResponseBytes == 0 {
		cfg.MaxResponseBytes = 1 << 30
	}
	return &Coordinator{
		cfg:      cfg,
		reg:      reg,
		budget:   resilience.NewRetryBudget(cfg.RetryBudget),
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

// clusterView is one placement decision's consistent view of the fleet:
// the eligible members and the consistent-hash ring over exactly them.
type clusterView struct {
	addrs []string                       // eligible (alive) addrs, ring index order
	ring  *ring                          // hash ring over addrs
	nodes map[string]*resilience.Breaker // per-node breakers, shared across views
	// saturated marks nodes whose last heartbeat reported a full
	// admission queue (Load.Pressure ≥ 1): placement prefers anyone
	// else, falling back to them only when no unsaturated node exists —
	// a 429 there is near-certain and costs a retry for nothing.
	saturated map[string]bool
}

// placeable reports whether placement may prefer addr right now: its
// breaker admits traffic and its heartbeat does not report saturation.
func (v clusterView) placeable(a string) bool {
	return v.nodes[a].Placeable() && !v.saturated[a]
}

// view snapshots the registry and returns the placement view, rebuilding
// the cached ring only when membership actually changed. Breakers
// survive membership churn (they are keyed by address), so a node that
// rejoins after a crash still starts from its recent failure history.
func (c *Coordinator) view() (clusterView, error) {
	snap := c.reg.Snapshot()
	eligible := snap.Eligible()
	if len(eligible) == 0 {
		return clusterView{}, ErrNoWorkers
	}
	saturated := map[string]bool{}
	for _, m := range snap.Members {
		if m.State == membership.StateAlive && m.Load.Pressure >= 1 {
			saturated[m.Addr] = true
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ringCache == nil || c.ringVer != snap.Version {
		c.ringCache = newRing(eligible, c.cfg.Replicas)
		c.ringAddrs = eligible
		c.ringVer = snap.Version
	}
	v := clusterView{
		addrs:     c.ringAddrs,
		ring:      c.ringCache,
		nodes:     make(map[string]*resilience.Breaker, len(c.ringAddrs)),
		saturated: saturated,
	}
	for _, a := range c.ringAddrs {
		v.nodes[a] = c.breakerLocked(a)
	}
	return v, nil
}

// markFailure records one node-fault exchange: the breaker counts it
// (and may open) and the node_downs stat ticks. Caller-cancels, deadline
// aborts and 4xx responses never come here — they say nothing about the
// node's health.
func (c *Coordinator) markFailure(b *resilience.Breaker) {
	b.Failure()
	c.nodeDowns.Add(1)
}

// markSuccess records one healthy exchange: the breaker's window gets a
// success and the retry budget earns a credit.
func (c *Coordinator) markSuccess(b *resilience.Breaker) {
	b.Success()
	c.budget.Credit()
}

// place picks the node for one brick: the first placeable, non-excluded
// eligible node on the brick's ring walk; failing that, the first
// non-excluded one (better a likely-dead try than none); "" when every
// eligible node is excluded. Draining and evicted nodes are not in the
// view at all — membership is authoritative, breakers only a hint.
func (v clusterView) place(job JobSpec, brick int, excluded map[string]bool) string {
	seq := v.ring.sequence(brickKey(job, brick))
	firstAlive := ""
	for _, i := range seq {
		a := v.addrs[i]
		if excluded[a] {
			continue
		}
		if firstAlive == "" {
			firstAlive = a
		}
		if v.placeable(a) {
			return a
		}
	}
	return firstAlive
}

// placeBounded is the bounded-load variant of place used for initial
// placement: first placeable node on the brick's ring walk with fewer
// than cap bricks assigned; failing that, the first placeable node;
// failing that, the first node at all.
func (v clusterView) placeBounded(job JobSpec, brick int, loads map[string][]int, cap int) string {
	seq := v.ring.sequence(brickKey(job, brick))
	firstAlive, firstHealthy := "", ""
	for _, i := range seq {
		a := v.addrs[i]
		if firstAlive == "" {
			firstAlive = a
		}
		if !v.placeable(a) {
			continue
		}
		if firstHealthy == "" {
			firstHealthy = a
		}
		if len(loads[a]) < cap {
			return a
		}
	}
	if firstHealthy != "" {
		return firstHealthy
	}
	return firstAlive
}

// alternate picks a placeable hedge target not yet tried for this batch,
// from a fresh membership view: a node that drained or expired since the
// batch launched is never hedged onto.
func (c *Coordinator) alternate(job JobSpec, brick int, tried, excluded map[string]bool) string {
	v, err := c.view()
	if err != nil {
		return ""
	}
	seq := v.ring.sequence(brickKey(job, brick))
	for _, i := range seq {
		a := v.addrs[i]
		if tried[a] || excluded[a] {
			continue
		}
		if v.placeable(a) {
			return a
		}
	}
	return ""
}

// placeInitial runs the initial placement: consistent hash with bounded
// loads. Each brick walks its ring sequence and takes the first healthy
// node still under the per-node cap — affinity when the cluster is
// balanced, guaranteed balance always (no node maps more than
// ⌈bricks/healthy⌉ while others idle, so adding nodes always shrinks
// the map phase). The cap is recomputed from the eligible set on every
// render, which is how a join or drain rebalances the next frame. Brick
// lists come back sorted.
func (c *Coordinator) placeInitial(view clusterView, job JobSpec, numBricks int) (map[string][]int, error) {
	perNode := make(map[string][]int)
	healthyNow := 0
	for _, a := range view.addrs {
		if view.placeable(a) {
			healthyNow++
		}
	}
	if healthyNow == 0 {
		healthyNow = len(view.addrs) // every breaker open: place anyway
	}
	cap := (numBricks + healthyNow - 1) / healthyNow
	for id := 0; id < numBricks; id++ {
		a := view.placeBounded(job, id, perNode, cap)
		if a == "" {
			return nil, fmt.Errorf("dist: no live worker for brick %d", id)
		}
		perNode[a] = append(perNode[a], id)
	}
	for _, bricks := range perNode {
		sort.Ints(bricks)
	}
	return perNode, nil
}

// batchOutcome is one successfully mapped batch.
type batchOutcome struct {
	node       string
	stripes    []core.BrickStripe
	mapSeconds float64
	bytes      int64
}

// Breakdown decomposes a distributed frame's virtual makespan into its
// phases: the slowest node's map time (nodes run in parallel), the
// stripe transfers into the coordinator's NIC, and the local reduce.
// Wire+Reduce relative to the total is the coordinator overhead the
// cluster bench records.
type Breakdown struct {
	Map    sim.Time `json:"map_seconds"`
	Wire   sim.Time `json:"wire_seconds"`
	Reduce sim.Time `json:"reduce_seconds"`

	Batches   int64 `json:"batches"`
	WireBytes int64 `json:"wire_bytes"`
	Fragments int64 `json:"fragments"`

	// Reduced marks a frame that completed over the distributed-reduce
	// exchange; ExchangeBytes crossed the worker-to-worker wire and
	// CollectBytes the collect hop into the coordinator (both already
	// counted in WireBytes).
	Reduced       bool  `json:"reduced,omitempty"`
	ExchangeBytes int64 `json:"exchange_bytes,omitempty"`
	CollectBytes  int64 `json:"collect_bytes,omitempty"`
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
	grid, err := core.PlanGrid(planSpec, opt)
	if err != nil {
		return nil, Breakdown{}, err
	}
	// Map tasks are units, not bricks: one per brick in the convex
	// default (counts coincide), the partition's unit count otherwise.
	// Placement, completion counting and stripe validation all run in
	// unit IDs.
	numUnits, err := core.NumUnits(grid, opt.Partition)
	if err != nil {
		return nil, Breakdown{}, err
	}
	view, err := c.view()
	if err != nil {
		return nil, Breakdown{}, err
	}

	// Distributed reduce first when configured and the fleet can carry
	// it: mappers exchange pixel ranges peer-to-peer and the collects
	// return near-final range images. Any exchange failure — a peer
	// dying mid-exchange, a worker refusing the plan, a timeout —
	// abandons the exchange and falls through to the classic path on a
	// fresh membership view: same bits, different topology.
	if c.cfg.DistReduce && len(view.addrs) >= 2 {
		res, bd, rerr := c.renderReduce(ctx, job, opt, planSpec, grid, numUnits, view)
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

	perNode, err := c.placeInitial(view, job, numUnits)
	if err != nil {
		return nil, Breakdown{}, err
	}

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
			out, tried, err := c.sendBatch(ctx, job, grid.Counts, b.bricks, b.target, b.excluded, b.attempts)
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
			excluded := map[string]bool{}
			for n := range b.excluded {
				excluded[n] = true
			}
			for n := range tried {
				excluded[n] = true
			}
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
				a := rv.place(job, id, excluded)
				if a == "" {
					events <- event{err: fmt.Errorf("dist: bricks %v exhausted every worker: %w", b.bricks, err)}
					return
				}
				regroup[a] = append(regroup[a], id)
			}
			for a, bricks := range regroup {
				launch(pendingBatch{bricks: bricks, target: a, excluded: excluded, attempts: b.attempts + 1})
			}
		}()
	}
	for a, bricks := range perNode {
		launch(pendingBatch{bricks: bricks, target: a})
	}

	// Stream responses straight into the composite accumulator: the
	// partition scan of an early batch overlaps slow workers instead of
	// barriering on the full stripe set. Bucketing is per brick and the
	// fold walks bricks ascending, so arrival order never reaches the
	// pixels. A brick already seen (a late duplicate from a raced retry)
	// is dropped — duplicates are bit-identical by canonicality anyway.
	reducers := c.cfg.Reducers
	if reducers == 0 {
		reducers = len(view.addrs)
	}
	acc := newStreamComposite(opt.Width, opt.Height, opt.Background, c.cfg.Partitioner, reducers, planSpec)
	seen := make(map[int]bool, numUnits)
	nodeVirtual := make(map[string]sim.Time)
	var wireBytes int64
	var batches int64
	for len(seen) < numUnits {
		select {
		case ev := <-events:
			if ev.err != nil {
				return nil, Breakdown{}, ev.err
			}
			for _, s := range ev.out.stripes {
				if !seen[s.Brick] {
					seen[s.Brick] = true
					acc.add(s)
				}
			}
			nodeVirtual[ev.out.node] += sim.Seconds(ev.out.mapSeconds)
			wireBytes += ev.out.bytes
			batches++
		case <-ctx.Done():
			return nil, Breakdown{}, ctx.Err()
		}
	}

	out, reduceCharge := acc.finish()

	// Virtual makespan: map phases run node-parallel (max), the stripe
	// transfers serialise into the coordinator's NIC, the local reduce
	// follows. Additive across phases — conservative, no modeled overlap.
	var mapVirtual sim.Time
	for _, v := range nodeVirtual {
		if v > mapVirtual {
			mapVirtual = v
		}
	}
	wireVirtual := sim.Time(batches)*(planSpec.NICLatency+planSpec.MsgOverhead) +
		sim.BytesTime(wireBytes, planSpec.NICBandwidth)
	runtime := mapVirtual + wireVirtual + reduceCharge

	frags := acc.total
	res := &core.Result{
		Image: out,
		Stats: &mapreduce.JobStats{
			Makespan:      runtime,
			BytesOnWire:   wireBytes,
			Messages:      batches,
			TotalEmitted:  frags,
			TotalReceived: frags,
		},
		Grid:    grid,
		GPUs:    job.GPUs,
		Runtime: runtime,
		Voxels:  opt.Source.Dims().Voxels(),
	}
	if runtime > 0 {
		res.FPS = 1 / runtime.Seconds()
		res.VPSMillions = float64(res.Voxels) / runtime.Seconds() / 1e6
	}
	bd := Breakdown{
		Map:       mapVirtual,
		Wire:      wireVirtual,
		Reduce:    reduceCharge,
		Batches:   batches,
		WireBytes: wireBytes,
		Fragments: frags,
	}
	return res, bd, nil
}

// exchangeID mints a session identifier unique enough that a stale
// exchange from a previous frame can never alias a live one.
func exchangeID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

// renderReduce runs one frame with the reduce phase on the workers
// (DESIGN.md §11): every eligible worker owns a contiguous pixel-key
// range, mappers push each range to its owner over /reduce (their own
// range never touches the wire), and the coordinator collects one
// sparse composited range image per worker. No retries or hedging
// inside an exchange — a delivered push is not idempotent-free to
// re-place across nodes mid-flight, so any failure aborts the exchange
// and the caller falls back to the classic path, which has both.
func (c *Coordinator) renderReduce(ctx context.Context, job JobSpec, opt core.Options,
	planSpec cluster.Spec, grid *volume.Grid, numUnits int, view clusterView) (*core.Result, Breakdown, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	perNode, err := c.placeInitial(view, job, numUnits)
	if err != nil {
		return nil, Breakdown{}, err
	}
	n := len(view.addrs)
	pixels := int64(opt.Width) * int64(opt.Height)
	targets := make([]ReduceTarget, n)
	selfIdx := make(map[string]int, n)
	for i, a := range view.addrs {
		targets[i] = ReduceTarget{
			Addr: a,
			Lo:   int32(pixels * int64(i) / int64(n)),
			Hi:   int32(pixels * int64(i+1) / int64(n)),
		}
		selfIdx[a] = i
	}
	exID := exchangeID()
	compress := !c.cfg.NoCompress

	// Map fan-out: one batch per node, each carrying the identical
	// reducer plan. All maps must land before any collect can complete,
	// so failures surface here first.
	type mapRes struct {
		node       string
		mapSeconds float64
		frags      int64
		err        error
	}
	mapCh := make(chan mapRes, len(perNode))
	for a, bricks := range perNode {
		plan := &ReducePlan{Exchange: exID, Self: selfIdx[a], Compress: compress, Reducers: targets}
		go func(a string, bricks []int) {
			secs, frags, err := c.postMapReduce(ctx, job, grid.Counts, bricks, a, plan)
			mapCh <- mapRes{node: a, mapSeconds: secs, frags: frags, err: err}
		}(a, bricks)
	}
	var mapVirtual sim.Time
	var frags int64
	var mapErr error
	for range perNode {
		mr := <-mapCh
		if mr.err != nil {
			if mapErr == nil {
				mapErr = mr.err
				cancel() // tear down sibling maps; the exchange is lost
			}
			continue
		}
		if t := sim.Seconds(mr.mapSeconds); t > mapVirtual {
			mapVirtual = t
		}
		frags += mr.frags
	}
	if mapErr != nil {
		return nil, Breakdown{}, mapErr
	}

	// Collect fan-out: by now every range is fully delivered (maps
	// returned only after their pushes landed), so collects are one
	// round trip each.
	type collectRes struct {
		i   int
		out collectOutcome
		err error
	}
	colCh := make(chan collectRes, n)
	for i := range targets {
		go func(i int) {
			out, err := c.postCollect(ctx, job, exID, targets[i], numUnits, opt.Background, compress)
			colCh <- collectRes{i: i, out: out, err: err}
		}(i)
	}
	outs := make([]collectOutcome, n)
	var colErr error
	for range targets {
		cr := <-colCh
		if cr.err != nil {
			if colErr == nil {
				colErr = cr.err
				cancel()
			}
			continue
		}
		outs[cr.i] = cr.out
	}
	if colErr != nil {
		return nil, Breakdown{}, colErr
	}

	// Assemble: untouched pixels keep the same pre-filled background as
	// the classic path; every collected pixel carries its final color.
	out := img.New(opt.Width, opt.Height, composite.Finalize(composite.Fragment{}.Color(), opt.Background))
	var exchBytes, collectBytes, exchMsgs int64
	var exchangeWire, collectWire, reduceVirtual sim.Time
	for _, co := range outs {
		for _, f := range co.frags {
			out.SetKey(f.Key, vec.V4{X: f.R, Y: f.G, Z: f.B, W: f.A})
		}
		// Peer pushes into the reducers' NICs run reducer-parallel (max);
		// the collect responses serialise into the coordinator's NIC.
		w := sim.Time(co.netMsgs)*(planSpec.NICLatency+planSpec.MsgOverhead) +
			sim.BytesTime(co.netBytes, planSpec.NICBandwidth)
		if w > exchangeWire {
			exchangeWire = w
		}
		if t := sim.Seconds(co.reduceSeconds); t > reduceVirtual {
			reduceVirtual = t
		}
		collectWire += planSpec.NICLatency + planSpec.MsgOverhead +
			sim.BytesTime(co.bytes, planSpec.NICBandwidth)
		exchBytes += co.netBytes
		exchMsgs += co.netMsgs
		collectBytes += co.bytes
	}
	mapMsgs := sim.Time(len(perNode)) * (planSpec.NICLatency + planSpec.MsgOverhead)
	wireVirtual := mapMsgs + exchangeWire + collectWire
	wireBytes := exchBytes + collectBytes
	runtime := mapVirtual + wireVirtual + reduceVirtual

	batches := int64(len(perNode)) + int64(n)
	res := &core.Result{
		Image: out,
		Stats: &mapreduce.JobStats{
			Makespan:      runtime,
			BytesOnWire:   wireBytes,
			Messages:      batches,
			TotalEmitted:  frags,
			TotalReceived: frags,
		},
		Grid:    grid,
		GPUs:    job.GPUs,
		Runtime: runtime,
		Voxels:  opt.Source.Dims().Voxels(),
	}
	if runtime > 0 {
		res.FPS = 1 / runtime.Seconds()
		res.VPSMillions = float64(res.Voxels) / runtime.Seconds() / 1e6
	}
	bd := Breakdown{
		Map:           mapVirtual,
		Wire:          wireVirtual,
		Reduce:        reduceVirtual,
		Batches:       batches,
		WireBytes:     wireBytes,
		Fragments:     frags,
		Reduced:       true,
		ExchangeBytes: exchBytes,
		CollectBytes:  collectBytes,
	}
	return res, bd, nil
}

// postMapReduce posts one reduce-mode map batch: the worker pushes its
// stripes into the exchange and answers with an empty body and the
// HeaderReduced marker.
func (c *Coordinator) postMapReduce(ctx context.Context, job JobSpec, counts [3]int,
	bricks []int, addr string, plan *ReducePlan) (mapSeconds float64, frags int64, err error) {
	body, err := encodeMapRequest(MapRequest{Job: job, Bricks: bricks, GridCounts: counts, Reduce: plan})
	if err != nil {
		return 0, 0, err
	}
	c.batches.Add(1)
	b := c.breaker(addr)
	resp, _, err := c.post(ctx, c.attemptTimeout(ctx, 0), addr, MapPath, body, "application/json")
	if err != nil {
		return 0, 0, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	if resp.Header.Get(HeaderReduced) != "1" {
		c.corrupt.Add(1)
		c.markFailure(b)
		return 0, 0, fmt.Errorf("dist: node %s: map response lacks %s (stripes went nowhere)", addr, HeaderReduced)
	}
	mapSeconds, err = parseSecondsHeader(resp, HeaderMapSeconds)
	if err != nil {
		c.corrupt.Add(1)
		c.markFailure(b)
		return 0, 0, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	if h := resp.Header.Get(HeaderFragCount); h != "" {
		v, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil || v < 0 {
			c.corrupt.Add(1)
			c.markFailure(b)
			return 0, 0, fmt.Errorf("dist: node %s: bad %s header %q", addr, HeaderFragCount, h)
		}
		frags = v
	}
	return mapSeconds, frags, nil
}

// collectOutcome is one reducer's composited range.
type collectOutcome struct {
	frags         []composite.Fragment // sparse final pixels (Key + RGBA)
	reduceSeconds float64
	netBytes      int64 // exchange bytes the reducer received from peers
	netMsgs       int64
	bytes         int64 // collect response bytes on the coordinator hop
}

// postCollect fetches and verifies one reducer's composited range.
func (c *Coordinator) postCollect(ctx context.Context, job JobSpec, exID string,
	tgt ReduceTarget, numBricks int, bg vec.V4, compress bool) (collectOutcome, error) {
	body, err := json.Marshal(CollectRequest{
		Exchange:   exID,
		Lo:         tgt.Lo,
		Hi:         tgt.Hi,
		NumBricks:  numBricks,
		Background: [4]float32{bg.X, bg.Y, bg.Z, bg.W},
		Job:        job,
		Compress:   compress,
	})
	if err != nil {
		return collectOutcome{}, err
	}
	c.batches.Add(1)
	b := c.breaker(tgt.Addr)
	resp, payload, err := c.post(ctx, c.attemptTimeout(ctx, 0), tgt.Addr, CollectPath, body, "application/json")
	if err != nil {
		return collectOutcome{}, fmt.Errorf("dist: node %s: collect: %w", tgt.Addr, err)
	}
	out, err := c.verifyCollect(resp, payload, tgt)
	if err != nil {
		c.corrupt.Add(1)
		c.markFailure(b)
		return collectOutcome{}, fmt.Errorf("dist: node %s: collect: %w", tgt.Addr, err)
	}
	return out, nil
}

// verifyCollect checks digest, decodes the sparse range image and bounds
// every pixel key to the reducer's range.
func (c *Coordinator) verifyCollect(resp *http.Response, payload []byte, tgt ReduceTarget) (collectOutcome, error) {
	wantDigest := resp.Header.Get(HeaderStripeDigest)
	if wantDigest == "" {
		return collectOutcome{}, fmt.Errorf("missing %s header", HeaderStripeDigest)
	}
	if got := PayloadDigest(payload); got != wantDigest {
		return collectOutcome{}, fmt.Errorf("collect digest mismatch: body %s != header %s (corrupt response)", got, wantDigest)
	}
	stripes, err := DecodePayload(resp.Header.Get("Content-Encoding"), payload, c.cfg.MaxResponseBytes)
	if err != nil {
		return collectOutcome{}, err
	}
	var frags []composite.Fragment
	for _, s := range stripes {
		frags = append(frags, s.Frags...)
	}
	for _, f := range frags {
		if f.Key < tgt.Lo || f.Key >= tgt.Hi {
			return collectOutcome{}, fmt.Errorf("collected pixel %d outside range [%d,%d)", f.Key, tgt.Lo, tgt.Hi)
		}
	}
	if h := resp.Header.Get(HeaderFragCount); h != "" {
		if v, perr := strconv.Atoi(h); perr != nil || v != len(frags) {
			return collectOutcome{}, fmt.Errorf("collect fragment count mismatch: body %d != header %q", len(frags), h)
		}
	}
	out := collectOutcome{frags: frags, bytes: int64(len(payload))}
	if out.reduceSeconds, err = parseSecondsHeader(resp, HeaderReduceSeconds); err != nil {
		return collectOutcome{}, err
	}
	for _, h := range []struct {
		name string
		dst  *int64
	}{{HeaderExchangeBytes, &out.netBytes}, {HeaderExchangeMsgs, &out.netMsgs}} {
		if s := resp.Header.Get(h.name); s != "" {
			v, perr := strconv.ParseInt(s, 10, 64)
			if perr != nil || v < 0 {
				return collectOutcome{}, fmt.Errorf("bad %s header %q", h.name, s)
			}
			*h.dst = v
		}
	}
	return out, nil
}

// attemptTimeout derives the per-attempt deadline for one batch
// exchange: the configured AttemptTimeout, shrunk so the remaining
// attempts share the job context's remaining budget when that is
// tighter. The parent context still bounds everything — the floor only
// prevents a degenerate zero-length attempt.
func (c *Coordinator) attemptTimeout(ctx context.Context, attempt int) time.Duration {
	d := c.cfg.AttemptTimeout
	if d < 0 {
		return 0
	}
	if dl, ok := ctx.Deadline(); ok {
		left := c.cfg.MaxAttempts - attempt
		if left < 1 {
			left = 1
		}
		if share := time.Until(dl) / time.Duration(left); share < d {
			d = share
		}
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// sendBatch posts one map batch to target, hedging a straggler onto an
// alternate node when configured. It validates shape and digest of the
// winning response. On failure, tried names every node the batch was
// attempted on (primary and hedges) so re-placement can exclude them
// all — a batch never retries a node that already failed it.
func (c *Coordinator) sendBatch(ctx context.Context, job JobSpec, counts [3]int,
	bricks []int, target string, excluded map[string]bool, attempt int) (batchOutcome, map[string]bool, error) {
	type result struct {
		out batchOutcome
		err error
	}
	perAttempt := c.attemptTimeout(ctx, attempt)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resCh := make(chan result, len(c.reg.Snapshot().Members)+2)
	post := func(ctx context.Context, addr string) {
		out, err := c.postMap(ctx, perAttempt, job, counts, bricks, addr)
		resCh <- result{out: out, err: err}
	}
	c.batches.Add(1)
	tried := map[string]bool{target: true}
	go post(ctx, target)
	launched := 1
	var timer *time.Timer
	var timerC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		timer = time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}
	hedge := func() {
		timerC = nil
		alt := c.alternate(job, bricks[0], tried, excluded)
		if alt == "" {
			return
		}
		// A hedge is an extra attempt like any retry: it costs a budget
		// token, so a straggling fleet cannot double its own load. Shed
		// hedges (the budget counter ticks) rather than fail the batch —
		// the primary is still in flight.
		if !c.budget.TryTake() {
			return
		}
		tried[alt] = true
		c.hedges.Add(1)
		c.batches.Add(1)
		launched++
		// Hedges are speculative by definition: the worker's admission
		// gate sheds them first under pressure, so hedging never starves
		// interactive work fleet-wide.
		go post(resilience.WithPriority(ctx, resilience.Speculative), alt)
	}
	var firstErr error
	for {
		select {
		case a := <-resCh:
			if a.err == nil {
				if a.out.node != target {
					c.hedgeWins.Add(1)
				}
				return a.out, tried, nil
			}
			// A deadline abort dooms every sibling attempt too (they share
			// the budget): tear the batch down now instead of waiting for
			// the straggler to discover the same expiry.
			if errors.Is(a.err, ErrDeadline) {
				return batchOutcome{}, tried, a.err
			}
			if firstErr == nil {
				firstErr = a.err
			}
			launched--
			if launched == 0 {
				return batchOutcome{}, tried, firstErr
			}
			// Attempts remain in flight (e.g. a straggling primary whose
			// hedge just died): don't sit behind the straggler — re-arm
			// the hedge toward the next untried node.
			if timer != nil && timerC == nil {
				timer.Reset(c.cfg.HedgeAfter)
				timerC = timer.C
			}
		case <-timerC:
			hedge()
		case <-ctx.Done():
			return batchOutcome{}, tried, ctx.Err()
		}
	}
}

// breaker returns the circuit breaker for addr, creating it if needed (a
// response may arrive after the member already left the registry).
func (c *Coordinator) breaker(addr string) *resilience.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerLocked(addr)
}

func (c *Coordinator) breakerLocked(addr string) *resilience.Breaker {
	b, ok := c.breakers[addr]
	if !ok {
		b = resilience.NewBreaker(c.cfg.Breaker)
		c.breakers[addr] = b
	}
	return b
}

// BreakerState reports addr's breaker position ("closed" when the node
// has never been exchanged with) — tests and /stats diagnostics.
func (c *Coordinator) BreakerState(addr string) resilience.BreakerState {
	return c.breaker(addr).State()
}

// post performs one HTTP exchange against a node, bounded by the
// per-attempt deadline, with the node health bookkeeping every dist hop
// shares: the node's breaker admits (or refuses) the exchange up front
// and every terminal path resolves it — Success, Failure, or Cancel
// when the outcome says nothing about the node. The job context's own
// deadline rides the request as HeaderDeadline (relative milliseconds,
// immune to clock skew) and the context's priority class as
// HeaderPriority, so the worker's admission gate and deadline checks see
// the same budget this coordinator does. Error bodies are drained
// before close so the keep-alive connection returns to the shared
// transport's pool instead of being torn down — under hedging the same
// worker sees many short exchanges, and re-dialing each one churns TCP
// state for nothing.
func (c *Coordinator) post(parent context.Context, perAttempt time.Duration,
	addr, path string, body []byte, contentType string) (*http.Response, []byte, error) {
	b := c.breaker(addr)
	if !b.Admit() {
		// Not a node fault (no evidence was gathered): the batch re-places
		// elsewhere, bounded by MaxAttempts and the retry budget.
		return nil, nil, fmt.Errorf("dist: circuit breaker open for %s", addr)
	}
	ctx := parent
	if perAttempt > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, perAttempt)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		b.Cancel()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if dl, ok := parent.Deadline(); ok {
		req.Header.Set(resilience.HeaderDeadline, resilience.EncodeDeadline(time.Until(dl)))
	}
	req.Header.Set(resilience.HeaderPriority, resilience.PriorityFrom(parent).String())
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		// Classify before blaming the node. A caller-side cancel (hedge
		// winner, job teardown) or the job's own expired deadline says
		// nothing about the node's health: marking it down would put a
		// healthy straggler into backoff on every hedge win and poison
		// its placement affinity. An expired *per-attempt* deadline while
		// the parent is live, by contrast, IS a node problem (it hung
		// past its budget) and does mark it down.
		switch {
		case parent.Err() != nil:
			b.Cancel()
			if errors.Is(parent.Err(), context.DeadlineExceeded) {
				c.cfg.Metrics.DeadlineAbort()
				return nil, nil, fmt.Errorf("%w: %v", ErrDeadline, err)
			}
		case errors.Is(err, context.Canceled):
			// The attempt's own context was cancelled without the parent
			// being done — teardown racing completion; still no evidence.
			b.Cancel()
		default:
			c.markFailure(b)
		}
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		drainBody(resp.Body)
		switch {
		case resp.StatusCode == http.StatusGatewayTimeout:
			// The worker aborted past the request's end-to-end deadline:
			// a property of the budget, not the node. No retry can help.
			b.Cancel()
			c.cfg.Metrics.DeadlineAbort()
			return nil, nil, fmt.Errorf("%w: node %s: %s", ErrDeadline, addr, bytes.TrimSpace(msg))
		case resp.StatusCode >= 500:
			// Only other 5xx marks the node down.
			c.markFailure(b)
		default:
			// 429 is transient backpressure (the node is alive and telling
			// us so), 400 is a deterministic request problem, and 424 is a
			// reduce push that a *peer* refused — none of those say this
			// node is unhealthy, and opening breakers on healthy nodes
			// would degrade placement for every following job. The
			// response itself is breaker-level evidence of life. The batch
			// still fails here and re-places onto another node (or the
			// exchange falls back), bounded by MaxAttempts.
			b.Success()
		}
		return nil, nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	payload, err := readSized(io.LimitReader(resp.Body, c.cfg.MaxResponseBytes+1), resp.ContentLength, c.cfg.MaxResponseBytes+1)
	if err != nil {
		_ = resp.Body.Close()
		if parent.Err() == nil {
			c.markFailure(b)
		} else {
			b.Cancel()
		}
		return nil, nil, fmt.Errorf("reading response: %w", err)
	}
	_ = resp.Body.Close()
	if int64(len(payload)) > c.cfg.MaxResponseBytes {
		c.markFailure(b)
		return nil, nil, fmt.Errorf("response exceeds %d bytes", c.cfg.MaxResponseBytes)
	}
	// Transport-level success: the breaker window records it and the
	// retry budget earns a credit. Content verification failures after
	// this point add their own Failure — in half-open that re-opens the
	// breaker, which is exactly right for a node answering garbage.
	c.markSuccess(b)
	return resp, payload, nil
}

// postMap performs one HTTP map exchange with full response verification,
// bounded by the per-attempt deadline.
func (c *Coordinator) postMap(parent context.Context, perAttempt time.Duration, job JobSpec,
	counts [3]int, bricks []int, addr string) (batchOutcome, error) {
	body, err := encodeMapRequest(MapRequest{Job: job, Bricks: bricks, GridCounts: counts, Compress: !c.cfg.NoCompress})
	if err != nil {
		return batchOutcome{}, err
	}
	b := c.breaker(addr)
	resp, payload, err := c.post(parent, perAttempt, addr, MapPath, body, "application/json")
	if err != nil {
		return batchOutcome{}, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	out, err := c.verifyResponse(resp, payload, job, bricks, addr)
	if err != nil {
		c.corrupt.Add(1)
		c.markFailure(b)
		return batchOutcome{}, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	return out, nil
}

// verifyResponse checks digest, brick coverage, canonical stripe order,
// fragment counts and per-fragment key bounds, then decodes the stripes.
func (c *Coordinator) verifyResponse(resp *http.Response, payload []byte,
	job JobSpec, bricks []int, addr string) (batchOutcome, error) {
	wantDigest := resp.Header.Get(HeaderStripeDigest)
	if wantDigest == "" {
		return batchOutcome{}, fmt.Errorf("missing %s header", HeaderStripeDigest)
	}
	if got := PayloadDigest(payload); got != wantDigest {
		return batchOutcome{}, fmt.Errorf("stripe digest mismatch: body %s != header %s (corrupt response)", got, wantDigest)
	}
	stripes, err := DecodePayload(resp.Header.Get("Content-Encoding"), payload, c.cfg.MaxResponseBytes)
	if err != nil {
		return batchOutcome{}, err
	}
	want := make(map[int]bool, len(bricks))
	for _, id := range bricks {
		want[id] = true
	}
	keyRange := int32(job.Width) * int32(job.Height)
	frags := 0
	prevBrick := -1
	for _, s := range stripes {
		if !want[s.Brick] {
			return batchOutcome{}, fmt.Errorf("stripe for unrequested brick %d", s.Brick)
		}
		// The wire format documents ascending brick IDs and the
		// compositor's depth-tie ordering silently depends on canonical
		// order — enforce it instead of trusting it (coverage alone
		// already rejects duplicates via the want set).
		if s.Brick <= prevBrick {
			return batchOutcome{}, fmt.Errorf(
				"stripe order violation: brick %d after brick %d (canonical order is ascending)", s.Brick, prevBrick)
		}
		prevBrick = s.Brick
		delete(want, s.Brick)
		frags += len(s.Frags)
		// Bound every pixel key now: compositing indexes shards, the
		// counting sort and the framebuffer by it, and a buggy or
		// version-skewed worker must surface as a retried corrupt
		// response, not a panic (the digest only covers transport).
		for _, f := range s.Frags {
			if f.Key < 0 || f.Key >= keyRange {
				return batchOutcome{}, fmt.Errorf(
					"brick %d fragment key %d outside image of %d pixels", s.Brick, f.Key, keyRange)
			}
		}
	}
	if len(want) > 0 {
		missing := make([]int, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sort.Ints(missing)
		return batchOutcome{}, fmt.Errorf("response missing bricks %v", missing)
	}
	if h := resp.Header.Get(HeaderFragCount); h != "" {
		if n, err := strconv.Atoi(h); err != nil || n != frags {
			return batchOutcome{}, fmt.Errorf("fragment count mismatch: body %d != header %q", frags, h)
		}
	}
	mapSeconds, err := parseSecondsHeader(resp, HeaderMapSeconds)
	if err != nil {
		return batchOutcome{}, err
	}
	return batchOutcome{node: addr, stripes: stripes, mapSeconds: mapSeconds, bytes: int64(len(payload))}, nil
}

// parseSecondsHeader reads an optional virtual-seconds header. Values
// must be finite and non-negative: NaN compares false against every
// bound (the old `v < 0` guard silently accepted it) and a single NaN
// or +Inf from one hostile worker would poison every aggregated
// virtual-time stat and BENCH record downstream.
func parseSecondsHeader(resp *http.Response, name string) (float64, error) {
	h := resp.Header.Get(name)
	if h == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(h, 64)
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad %s header %q", name, h)
	}
	return v, nil
}
