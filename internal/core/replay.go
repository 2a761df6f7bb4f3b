package core

import (
	"fmt"
	"slices"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/gpu"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
	"gvmr/internal/volume"
)

// A distributed frame is charged as the engine's own job (DESIGN.md §9).
// Wherever a unit is mapped, MapBricks records what mapping it charges
// the engine — its UnitCharges — and a Replay runs every unit's record
// through mapreduce.Run on the job's own modelled cluster: each brick
// through chargeBrick, the one function Render's mapper charges a brick
// through, then its emissions. The replay renders nothing, and its
// makespan is Render's, bit for bit, whichever node mapped which unit.

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
	gpus  int
	part  mapreduce.Partitioner
	cam   *camera.Camera
	units [][]volume.Brick
}

// PlanReplay plans the job a replay of these options runs on a fresh
// instance of spec: the job RenderOn(spec, opt, ·) runs. Only direct
// send is modelled.
func PlanReplay(spec cluster.Spec, opt Options) (*Replay, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	if opt.Compositor != DirectSend {
		return nil, fmt.Errorf("core: a replay models direct send, not %v", opt.Compositor)
	}
	gpus := specGPUs(spec, opt)
	if gpus < 1 || gpus > spec.Nodes*spec.GPUsPerNode {
		return nil, fmt.Errorf("core: %d GPUs requested, cluster has %d", gpus, spec.Nodes*spec.GPUsPerNode)
	}
	grid, err := planBricks(opt.Source.Dims(), gpus, opt.BricksPerGPU, spec.GPU.VRAMBytes)
	if err != nil {
		return nil, err
	}
	cam, err := jobCamera(opt, grid)
	if err != nil {
		return nil, err
	}
	units, err := jobUnits(grid, opt.Partition)
	if err != nil {
		return nil, err
	}
	return &Replay{Grid: grid, spec: spec, opt: opt, gpus: gpus, part: partitionerOf(&opt), cam: cam, units: units}, nil
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
	buf := make([]int64, r.gpus)
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
	threads, visible := render.KernelThreads(r.cam, brick.Bounds)
	if b.Ran != visible {
		return fmt.Errorf("kernel ran %v with the footprint on screen %v", b.Ran, visible)
	}
	if !b.Ran {
		if b.Kernel != (gpu.Stats{}) || b.Readback != 0 || b.Frags != nil || b.Flushes != nil {
			return fmt.Errorf("off-screen brick carries kernel charges")
		}
		return nil
	}
	if len(b.Frags) != r.gpus {
		return fmt.Errorf("%d reducer counts for %d reducers", len(b.Frags), r.gpus)
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
		if red < 0 || red >= r.gpus {
			return fmt.Errorf("flush of reducer %d of %d", red, r.gpus)
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
	diff := make([]int64, r.gpus)
	for _, b := range c.Bricks {
		for red, n := range b.Frags {
			diff[red] += n
		}
	}
	for _, f := range frags {
		diff[r.part.Partition(f.Key, r.gpus)]--
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
	inst, err := instance(r.spec, 1)
	if err != nil {
		return nil, err
	}
	chunks := make([]mapreduce.Chunk, len(r.units))
	var frags int64
	for u, bricks := range r.units {
		if charges[u].Unit != u {
			return nil, fmt.Errorf("core: record %d is unit %d's", u, charges[u].Unit)
		}
		chunks[u] = replayChunk{unitChunk{id: u, bricks: bricks}, &charges[u]}
		frags += charges[u].Fragments()
	}
	cfg := jobConfig(&r.opt, inst, r.gpus, mapreduce.Mapper[struct{}, *UnitCharges](replayMapper{}), chunks)
	cfg.Partitioner, cfg.KeyRange = reducerKey{}, int32(r.gpus)
	cfg.MakeReducer = func(int) mapreduce.Reducer[struct{}] { return discardReducer[struct{}]{} }
	stats, err := mapreduce.Run(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stats:   stats,
		Grid:    r.Grid,
		GPUs:    r.gpus,
		Runtime: stats.Makespan,
		Voxels:  r.opt.Source.Dims().Voxels(),
	}
	if gather {
		start := inst.Env.Now()
		g := sim.Time(min(r.gpus, len(r.units)))*(r.spec.NICLatency+r.spec.MsgOverhead) +
			sim.BytesTime(frags*composite.FragmentBytes, r.spec.NICBandwidth)
		r.opt.Trace.Add(trace.Span{Name: "gather", Cat: "net", Lane: "coordinator", Start: start, End: start + g})
		res.Runtime += g
	}
	res.setRates()
	return res, nil
}

// discardReducer sinks the replay's pairs: a replay only charges.
type discardReducer[V any] struct{}

func (discardReducer[V]) Reduce(int32, []V) {}

// replayChunk is one unit with its record.
type replayChunk struct {
	unitChunk
	charges *UnitCharges
}

// reducerKey routes a replayed pair to the reducer its key names: the
// job's partitioner chose that reducer when the charges were recorded.
type reducerKey struct{}

// Partition implements mapreduce.Partitioner.
func (reducerKey) Partition(key int32, _ int) int { return int(key) }

// replayMapper charges a unit's record as rayCastMapper charged the unit:
// per brick chargeBrick, then the brick's pairs, emitted so each recorded
// flush falls where it fell.
type replayMapper struct{}

// Init implements mapreduce.Mapper.
func (replayMapper) Init(p mapreduce.Ctx, w *mapreduce.Worker) error {
	initWorker(p, w)
	return nil
}

// Stage implements mapreduce.Mapper.
func (replayMapper) Stage(_ mapreduce.Ctx, _ *mapreduce.Worker, c mapreduce.Chunk) (*UnitCharges, error) {
	return c.(replayChunk).charges, nil
}

// Map implements mapreduce.Mapper.
func (replayMapper) Map(p mapreduce.Ctx, w *mapreduce.Worker, _ mapreduce.Chunk, u *UnitCharges,
	emit func(mapreduce.KV[struct{}])) error {
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
