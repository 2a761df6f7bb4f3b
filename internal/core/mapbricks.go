package core

import (
	"cmp"
	"fmt"
	"sort"
	"sync"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/mapreduce"
	"gvmr/internal/sim"
	"gvmr/internal/volume"
)

// PlanGrid runs the bricking policy for a render job without rendering:
// the brick grid a job with these options would use on a cluster of this
// spec. It is deterministic in (spec.GPU, options), which is what lets a
// distributed coordinator and its remote workers agree on the grid
// without shipping it — both plan locally and verify the factorisation
// matches (internal/dist does exactly that).
func PlanGrid(spec cluster.Spec, opt Options) (*volume.Grid, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	return planBricks(opt.Source.Dims(), specGPUs(spec, opt), opt.BricksPerGPU, spec.GPU.VRAMBytes)
}

// specGPUs is the GPU count a job with these options plans for on a
// cluster of this spec: opt.GPUs, or every GPU of the spec.
func specGPUs(spec cluster.Spec, opt Options) int {
	return cmp.Or(opt.GPUs, spec.Nodes*spec.GPUsPerNode)
}

// BrickStripe is one map unit's fragments in kernel emission order —
// the depth-tagged stripe a distributed map worker returns for one of
// its units. Brick is the unit ID: the brick ID itself in the convex
// default (one unit per brick), the partition's unit index when
// Options.Partition groups bricks. The order within a
// stripe is a pure function of (unit, camera, params, source): the
// unit's bricks ascending by brick ID, each in thread order over the
// brick's screen footprint. It does not depend on which worker or node
// produced it, which is what makes distributed compositing deterministic
// under re-placement, retries and hedging. Under a non-convex partition
// one pixel may appear several times in a stripe — once per brick the
// ray crossed — forming that pixel's fragment list.
type BrickStripe struct {
	Brick int
	Frags []composite.Fragment
}

// MapResult is the outcome of a map-phase-only job over a subset of a
// render's bricks.
type MapResult struct {
	// Stripes holds one entry per requested brick, ascending by brick ID.
	// Bricks whose footprint misses the screen (or whose rays all
	// contribute nothing) appear with an empty fragment slice.
	Stripes []BrickStripe
	// Runtime is the virtual makespan of the local job: staging, texture
	// uploads, kernels, fragment read-back, partition and the local
	// stripe preparation, on a fresh instance of the spec.
	Runtime sim.Time
	// Stats are the underlying engine statistics.
	Stats *mapreduce.JobStats
	Grid  *volume.Grid
}

// FragmentCount sums the fragments across stripes.
func (m *MapResult) FragmentCount() int {
	n := 0
	for _, s := range m.Stripes {
		n += len(s.Frags)
	}
	return n
}

// stripeRecorder captures each chunk's fragments as the mapper
// emits them. The mutex serialises recording across worker processes; the
// per-chunk order is emission order, so the recorded stripes are
// deterministic regardless of how the engine schedules workers.
type stripeRecorder struct {
	mu      sync.Mutex
	stripes map[int]*BrickStripe
}

// recordingMapper is the real ray-cast mapper with every emitted fragment
// teed into the recorder.
type recordingMapper struct {
	*rayCastMapper
	rec *stripeRecorder
}

func (m *recordingMapper) Map(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk,
	bd []*volume.BrickData, emit func(mapreduce.KV[composite.Fragment])) error {
	m.rec.mu.Lock()
	stripe := m.rec.stripes[c.ID()]
	m.rec.mu.Unlock()
	tee := func(kv mapreduce.KV[composite.Fragment]) {
		stripe.Frags = append(stripe.Frags, kv.Val)
		emit(kv)
	}
	return m.rayCastMapper.Map(p, w, c, bd, tee)
}

// discardReducer sinks the engine-side pairs: MapBricks callers composite
// elsewhere (the distributed coordinator), so the local reduce is only a
// cost-model charge for preparing the stripe batch.
type discardReducer struct{}

func (discardReducer) Reduce(int32, []composite.Fragment) {}

// MapBricks runs the map phase of a render job for the given unit IDs on
// a fresh instance of spec and returns the per-unit fragment stripes plus
// the job's virtual makespan. It is the remote half of the distributed
// direct-send pipeline: a coordinator plans the full grid, shards the
// unit IDs across nodes, and each node calls MapBricks for its share.
// Without Options.Partition a unit is a brick and the IDs are brick IDs;
// with a Partition they index the partition's units.
//
// The grid is planned from opt exactly as Render plans it, so the
// fragments of unit i here are bit-identical to the fragments unit i
// produces inside a single-process Render of the same options — the
// invariant the distributed golden tests pin down. spec may be a smaller
// machine than the one the grid was planned for (opt.GPUs bricks spread
// over a node with fewer local GPUs run in series); only the planning
// inputs (GPU VRAM) must match, which PlanGrid documents.
//
// devWorkers caps the host cores the instance's simulated devices use, as
// in RenderOn.
func MapBricks(spec cluster.Spec, opt Options, brickIDs []int, devWorkers int) (*MapResult, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	if len(brickIDs) == 0 {
		return nil, fmt.Errorf("core: no bricks to map")
	}
	mapper, units, err := planJob(opt, specGPUs(spec, opt), spec.GPU.VRAMBytes)
	if err != nil {
		return nil, err
	}
	rec := &stripeRecorder{stripes: map[int]*BrickStripe{}}
	chunks := make([]mapreduce.Chunk, 0, len(brickIDs))
	for _, id := range brickIDs {
		if id < 0 || id >= len(units) {
			return nil, fmt.Errorf("core: unit %d outside job of %d units", id, len(units))
		}
		if _, dup := rec.stripes[id]; dup {
			return nil, fmt.Errorf("core: unit %d requested twice", id)
		}
		rec.stripes[id] = &BrickStripe{Brick: id}
		chunks = append(chunks, unitChunk{id: id, bricks: units[id]})
	}

	inst, err := instance(spec, devWorkers)
	if err != nil {
		return nil, err
	}
	defer planFrame(mapper.src, chunks)()
	cfg := opt.jobConfig(inst, min(inst.TotalGPUs(), len(chunks)), &recordingMapper{rayCastMapper: mapper, rec: rec}, chunks)
	cfg.MakeReducer = func(int) mapreduce.Reducer[composite.Fragment] { return discardReducer{} }
	t0 := inst.Env.Now()
	stats, err := mapreduce.Run(cfg)
	if err != nil {
		return nil, err
	}
	res := &MapResult{
		Runtime: inst.Env.Now() - t0,
		Stats:   stats,
		Grid:    mapper.grid,
	}
	for _, s := range rec.stripes {
		res.Stripes = append(res.Stripes, *s)
	}
	sort.Slice(res.Stripes, func(i, j int) bool { return res.Stripes[i].Brick < res.Stripes[j].Brick })
	return res, nil
}
