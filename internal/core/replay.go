package core

import (
	"fmt"
	"slices"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/gpu"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
	"gvmr/internal/volume"
)

// Every frame is charged as the engine's own job (DESIGN.md §9).
// Wherever a unit is mapped — inside Render, or by MapBricks on a
// cluster worker — the mapper records what mapping it charges the
// engine, its UnitCharges, and replayJob runs every unit's record
// through mapreduce.Run: each brick through chargeBrick, then its
// emissions. Render replays on the caller's cluster, Replay.Run on a
// fresh instance of the job's spec; neither job renders anything, and
// the makespan does not depend on which node mapped which unit.

// BrickCharges is what mapping one brick charged the engine.
type BrickCharges struct {
	// Box is the resident box the brick uploaded (render.ResidentBox).
	Box volume.Dims
	// Ran is false when the brick's footprint misses the screen: the
	// brick then charged its upload alone.
	Ran bool
	// Kernel is the kernel's work and Readback the emission buffer read
	// back after it.
	Kernel   gpu.Stats
	Readback int64
	// Frags counts the brick's fragments per modelled reducer — one per
	// job GPU, under the job's partitioner; nil when Ran is false.
	Frags []int64
	// Flushes lists, in order, the reducers whose send buffer this
	// brick's emission filled mid-chunk; each flush sends flushKVs pairs.
	Flushes []int
}

// UnitCharges is one map unit's record: its bricks' charges, in the
// unit's brick order.
type UnitCharges struct {
	Unit   int
	Bricks []BrickCharges
}

// Fragments sums the unit's fragments.
func (u *UnitCharges) Fragments() int64 {
	var n int64
	for _, b := range u.Bricks {
		for _, f := range b.Frags {
			n += f
		}
	}
	return n
}

// flushKVs is how many pairs fill one reducer's send buffer: the engine
// flushes once a buffer holds jobFlushBytes at FragmentBytes a pair.
const flushKVs = (jobFlushBytes + composite.FragmentBytes - 1) / composite.FragmentBytes

// MaxCharge bounds every number a record may carry: far above any real
// brick's counts, and low enough that no sum over a job's bricks
// overflows.
const MaxCharge = 1 << 46

// partitionerOf is the job's partitioner, as the engine defaults it.
func partitionerOf(opt *Options) mapreduce.Partitioner {
	if opt.Partitioner == nil {
		return mapreduce.RoundRobin{}
	}
	return opt.Partitioner
}

// Replay is a render job planned from its options alone — grid, camera
// and units — against which recorded charges are checked and replayed.
type Replay struct {
	Grid *volume.Grid

	spec  cluster.Spec
	opt   Options
	m     *rayCastMapper
	units [][]volume.Brick
}

// PlanReplay plans the job a replay of these options runs on a fresh
// instance of spec: the job RenderOn(spec, opt, ·) runs. Only direct
// send is modelled: Run charges no binary-swap exchange.
func PlanReplay(spec cluster.Spec, opt Options) (*Replay, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	if opt.Compositor != DirectSend {
		return nil, fmt.Errorf("core: a replay models direct send, not %v", opt.Compositor)
	}
	return planReplay(spec, opt)
}

// planReplay plans opt's job on spec's GPUs; opt must hold its defaults.
func planReplay(spec cluster.Spec, opt Options) (*Replay, error) {
	gpus := specGPUs(spec, opt)
	if gpus < 1 || gpus > spec.Nodes*spec.GPUsPerNode {
		return nil, fmt.Errorf("core: %d GPUs requested, cluster has %d", gpus, spec.Nodes*spec.GPUsPerNode)
	}
	m, units, err := planJob(opt, gpus, spec.GPU.VRAMBytes)
	if err != nil {
		return nil, err
	}
	return &Replay{Grid: m.grid, spec: spec, opt: opt, m: m, units: units}, nil
}

// Units returns the job's map-unit count.
func (r *Replay) Units() int { return len(r.units) }

// Check reports whether c is a record its unit could have produced: one
// entry per brick of the unit; a resident box inside the brick's ghost
// region; a kernel exactly when the footprint is on screen, with the
// footprint's thread count, at most one fragment per thread, and the
// emission and read-back sizes those imply; counts that cannot overflow;
// and flushes exactly where the fragment counts fill a buffer. A record
// that fails is a corrupt reply, whatever its stripes hold.
func (r *Replay) Check(c UnitCharges) error {
	if c.Unit < 0 || c.Unit >= len(r.units) {
		return fmt.Errorf("core: charges for unit %d outside job of %d units", c.Unit, len(r.units))
	}
	bricks := r.units[c.Unit]
	if len(c.Bricks) != len(bricks) {
		return fmt.Errorf("core: unit %d charges %d bricks, has %d", c.Unit, len(c.Bricks), len(bricks))
	}
	buf := make([]int64, r.m.gpus)
	for i := range c.Bricks {
		if err := r.checkBrick(&c.Bricks[i], bricks[i], buf); err != nil {
			return fmt.Errorf("core: unit %d brick %d: %w", c.Unit, bricks[i].ID, err)
		}
	}
	return nil
}

// checkBrick checks one brick's charges; buf carries each reducer's
// buffered pairs from the unit's earlier bricks.
func (r *Replay) checkBrick(b *BrickCharges, brick volume.Brick, buf []int64) error {
	g := brick.Ghost.Ext
	if b.Box.X < 0 || b.Box.Y < 0 || b.Box.Z < 0 || b.Box.X > g.X || b.Box.Y > g.Y || b.Box.Z > g.Z {
		return fmt.Errorf("resident box %v outside ghost region %v", b.Box, g)
	}
	threads, visible := render.KernelThreads(r.m.cam, brick.Bounds)
	if b.Ran != visible {
		return fmt.Errorf("kernel ran %v with the footprint on screen %v", b.Ran, visible)
	}
	if !b.Ran {
		if b.Kernel != (gpu.Stats{}) || b.Readback != 0 || b.Frags != nil || b.Flushes != nil {
			return fmt.Errorf("off-screen brick carries kernel charges")
		}
		return nil
	}
	if len(b.Frags) != r.m.gpus {
		return fmt.Errorf("%d reducer counts for %d reducers", len(b.Frags), r.m.gpus)
	}
	var frags int64
	for _, n := range b.Frags {
		if n < 0 || n > threads {
			return fmt.Errorf("reducer count %d outside [0, %d]", n, threads)
		}
		frags += n
	}
	k := b.Kernel
	switch {
	case k.Threads != threads:
		return fmt.Errorf("kernel of %d threads over a footprint of %d", k.Threads, threads)
	case frags > threads:
		return fmt.Errorf("%d fragments from %d threads", frags, threads)
	case k.RaysHit < 0 || k.RaysHit > frags || k.Emitted != threads+frags-k.RaysHit:
		return fmt.Errorf("%d records and %d rays hit disagree with %d fragments", k.Emitted, k.RaysHit, frags)
	case k.Samples < 0 || k.Samples > MaxCharge || k.SamplesSkipped < 0 || k.SamplesSkipped > MaxCharge ||
		k.Cells < 0 || k.Cells > MaxCharge:
		return fmt.Errorf("kernel counts %+v outside [0, %d]", k, int64(MaxCharge))
	case b.Readback != 4*threads+composite.FragmentBytes*frags:
		return fmt.Errorf("read-back of %d bytes for %d threads and %d fragments", b.Readback, threads, frags)
	}
	left := slices.Clone(b.Frags)
	for _, red := range b.Flushes {
		if red < 0 || red >= r.m.gpus {
			return fmt.Errorf("flush of reducer %d of %d", red, r.m.gpus)
		}
		n := flushKVs - buf[red]
		if n > left[red] {
			return fmt.Errorf("reducer %d flushed before its buffer filled", red)
		}
		left[red] -= n
		buf[red] = 0
	}
	for red, n := range left {
		if buf[red] += n; buf[red] >= flushKVs {
			return fmt.Errorf("reducer %d's buffer fills without a flush", red)
		}
	}
	return nil
}

// CheckStripe reports whether c's per-reducer fragment counts are those
// of its unit's stripe frags under the job's partitioner. Every key must
// already lie inside the image.
func (r *Replay) CheckStripe(c UnitCharges, frags []composite.Fragment) error {
	diff := make([]int64, r.m.gpus)
	for _, b := range c.Bricks {
		for red, n := range b.Frags {
			diff[red] += n
		}
	}
	for _, f := range frags {
		diff[r.m.part.Partition(f.Key, r.m.gpus)]--
	}
	for red, d := range diff {
		if d != 0 {
			return fmt.Errorf("core: unit %d charges reducer %d with %d fragments more than its stripe", c.Unit, red, d)
		}
	}
	return nil
}

// Run replays the job's recorded charges, one checked record per unit in
// unit order, and returns the frame's statistics without an image. Its
// Runtime is the replayed job's makespan — RenderOn's for the same spec
// and options — plus, when gather is set, the classic topology's one
// extra term: every mapping GPU's fragments as one message into the
// coordinator's NIC, each fragment at the engine's wire size
// (composite.FragmentBytes). Options.Trace records the job's spans and
// the gather as one net span.
func (r *Replay) Run(charges []UnitCharges, gather bool) (*Result, error) {
	if len(charges) != len(r.units) {
		return nil, fmt.Errorf("core: %d unit records for %d units", len(charges), len(r.units))
	}
	var frags int64
	for u := range r.units {
		if charges[u].Unit != u {
			return nil, fmt.Errorf("core: record %d is unit %d's", u, charges[u].Unit)
		}
		frags += charges[u].Fragments()
	}
	inst, err := instance(r.spec, 1)
	if err != nil {
		return nil, err
	}
	stats, _, err := r.replayJob(inst, charges)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stats:   stats,
		Grid:    r.Grid,
		GPUs:    r.m.gpus,
		Runtime: stats.Makespan,
		Voxels:  r.opt.Source.Dims().Voxels(),
	}
	if gather {
		start := inst.Env.Now()
		g := sim.Time(min(r.m.gpus, len(r.units)))*(r.spec.NICLatency+r.spec.MsgOverhead) +
			sim.BytesTime(frags*composite.FragmentBytes, r.spec.NICBandwidth)
		r.opt.Trace.Add(trace.Span{Name: "gather", Cat: "net", Lane: "coordinator", Start: start, End: start + g})
		res.Runtime += g
	}
	res.setRates()
	return res, nil
}

// replayJob runs the job's unit records, one per unit in unit order,
// through the engine on cl: the render job's own configuration, with a
// unit's pairs emitted as its record says they were. It returns the
// job's statistics and, per unit, the GPU that mapped it. A binary-swap
// job reduces every pair on its mapping GPU (LocalReduce).
func (r *Replay) replayJob(cl *cluster.Cluster, charges []UnitCharges) (*mapreduce.JobStats, []int, error) {
	chunks := make([]mapreduce.Chunk, len(r.units))
	for u, bricks := range r.units {
		chunks[u] = unitChunk{id: u, bricks: bricks, charges: &charges[u]}
	}
	mapper := &replayMapper{mappedBy: make([]int, len(r.units))}
	o := &r.opt
	cfg := mapreduce.Config[struct{}, *UnitCharges]{
		Cluster:     cl,
		Workers:     r.m.gpus,
		Mapper:      mapper,
		MakeReducer: func(int) mapreduce.Reducer[struct{}] { return discardReducer{} },
		Partitioner: reducerKey{},
		KeyRange:    int32(r.m.gpus),
		ValueBytes:  composite.FragmentBytes - 4,
		Chunks:      chunks,
		Assign:      o.Assign,
		FlushBytes:  jobFlushBytes,
		FromDisk:    o.FromDisk,
		LocalReduce: o.Compositor == BinarySwap,
		ReduceOn:    o.ReduceOn,
		SortOn:      o.SortOn,
		Trace:       o.Trace,
	}
	if o.InSitu {
		// A co-located simulation leaves brick i on node i mod N; static
		// assignment keeps render workers on the data.
		nodes := len(cl.Nodes)
		cfg.Home = func(c mapreduce.Chunk) int { return c.ID() % nodes }
	}
	stats, err := mapreduce.Run(cfg)
	return stats, mapper.mappedBy, err
}

// discardReducer sinks the replay's pairs: a replay only charges.
type discardReducer struct{}

func (discardReducer) Reduce(int32, []struct{}) {}

// unitChunk is one map unit with its record, as the engine's chunk. Chunk
// IDs are unit IDs; for singleton units they coincide with brick IDs.
type unitChunk struct {
	id      int
	bricks  []volume.Brick // ascending by brick ID
	charges *UnitCharges
}

// ID implements mapreduce.Chunk.
func (c unitChunk) ID() int { return c.id }

// Bytes implements mapreduce.Chunk: the ghost-region payload that moves
// from disk to host memory to VRAM, summed over the unit's bricks.
func (c unitChunk) Bytes() int64 {
	var n int64
	for _, b := range c.bricks {
		n += b.Bytes()
	}
	return n
}

// reducerKey routes a replayed pair to the reducer its key names: the
// job's partitioner chose that reducer when the charges were recorded.
type reducerKey struct{}

// Partition implements mapreduce.Partitioner.
func (reducerKey) Partition(key int32, _ int) int { return int(key) }

// replayMapper charges a unit's record as the unit was mapped: per brick
// chargeBrick, then the brick's pairs, emitted so each recorded flush
// falls where it fell. mappedBy records which GPU charged each unit.
type replayMapper struct{ mappedBy []int }

// Init implements mapreduce.Mapper: every worker touches its link once,
// which models the view-matrix and transfer-function texture upload.
func (*replayMapper) Init(p mapreduce.Ctx, w *mapreduce.Worker) error {
	w.Download(p, 0)
	return nil
}

// Stage implements mapreduce.Mapper.
func (*replayMapper) Stage(_ mapreduce.Ctx, _ *mapreduce.Worker, c mapreduce.Chunk) (*UnitCharges, error) {
	return c.(unitChunk).charges, nil
}

// Map implements mapreduce.Mapper.
func (m *replayMapper) Map(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk, u *UnitCharges,
	emit func(mapreduce.KV[struct{}])) error {
	m.mappedBy[c.ID()] = w.Index
	var buf []int64 // per reducer, the pairs buffered since the chunk began or its last flush
	emitN := func(red int, n int64) {
		for ; n > 0; n-- {
			emit(mapreduce.KV[struct{}]{Key: int32(red)})
		}
	}
	for i := range u.Bricks {
		b := &u.Bricks[i]
		if err := chargeBrick(p, w, b); err != nil {
			return err
		}
		if b.Ran {
			if buf == nil {
				buf = make([]int64, len(b.Frags))
			}
			left := slices.Clone(b.Frags)
			for _, red := range b.Flushes {
				n := flushKVs - buf[red]
				left[red] -= n
				buf[red] = 0
				emitN(red, n)
			}
			for red, n := range left {
				buf[red] += n
				emitN(red, n)
			}
		}
	}
	return nil
}
