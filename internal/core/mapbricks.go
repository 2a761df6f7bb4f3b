package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/mapreduce"
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
// render's units.
type MapResult struct {
	// Stripes holds one entry per requested unit, ascending by unit ID.
	// Units whose footprint misses the screen (or whose rays all
	// contribute nothing) appear with an empty fragment slice.
	Stripes []BrickStripe
	// Charges holds each requested unit's record, parallel to Stripes:
	// what mapping it charged the engine of the whole job (replay.go).
	Charges []UnitCharges
}

// FragmentCount sums the fragments across stripes.
func (m *MapResult) FragmentCount() int {
	n := 0
	for _, s := range m.Stripes {
		n += len(s.Frags)
	}
	return n
}

// unitRecord is one unit's stripe and charges as the mapper fills them.
type unitRecord struct {
	stripe  BrickStripe
	charges UnitCharges
}

// recordingMapper is the real ray-cast mapper with every emitted fragment
// teed into its unit's stripe and each brick's charges recorded as the
// whole job's engine would batch its pairs: per modelled reducer under
// the job's partitioner, with a flush wherever a reducer's buffer fills.
// The mutex serialises the record table across worker processes; the
// per-unit order is emission order, so the records are deterministic
// regardless of how the engine schedules workers.
type recordingMapper struct {
	*rayCastMapper
	part     mapreduce.Partitioner
	reducers int

	mu    sync.Mutex
	units map[int]*unitRecord
}

func (m *recordingMapper) Map(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk,
	staged []*volume.BrickData, emit func(mapreduce.KV[composite.Fragment])) error {
	m.mu.Lock()
	rec := m.units[c.ID()]
	m.mu.Unlock()
	// The engine flushes every buffer at a chunk's end, so a unit's
	// buffers start empty.
	buf := make([]int64, m.reducers)
	for _, bd := range staged {
		frags := make([]int64, m.reducers)
		var flushes []int
		tee := func(kv mapreduce.KV[composite.Fragment]) {
			rec.stripe.Frags = append(rec.stripe.Frags, kv.Val)
			red := m.part.Partition(kv.Key, m.reducers)
			frags[red]++
			if buf[red]++; buf[red] == flushKVs {
				flushes = append(flushes, red)
				buf[red] = 0
			}
			emit(kv)
		}
		ch, err := m.mapBrick(p, w, bd, tee)
		if err != nil {
			return err
		}
		if ch.Ran {
			ch.Frags, ch.Flushes = frags, flushes
		}
		rec.charges.Bricks = append(rec.charges.Bricks, ch)
	}
	return nil
}

// discardReducer sinks the engine-side pairs: MapBricks callers composite
// elsewhere (the distributed coordinator), and a replay only charges.
type discardReducer[V any] struct{}

func (discardReducer[V]) Reduce(int32, []V) {}

// MapBricks runs the map phase of a render job for the given unit IDs on
// a fresh instance of spec and returns each unit's fragment stripe and
// charges. It is the remote half of the distributed direct-send
// pipeline: a coordinator plans the full grid, shards the unit IDs across
// nodes, each node calls MapBricks for its share, and the coordinator
// replays the charges. Without Options.Partition a unit is a brick and
// the IDs are brick IDs; with a Partition they index the partition's
// units.
//
// The grid is planned from opt exactly as Render plans it, so the
// fragments and charges of unit i here are bit-identical to what unit i
// produces and charges inside a single-process Render of the same
// options — the invariant the distributed golden tests pin down. spec may
// be a smaller machine than the one the grid was planned for (opt.GPUs
// bricks spread over a node with fewer local GPUs run in series); only
// the planning inputs (GPU VRAM) must match, which PlanGrid documents.
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
	gpus := specGPUs(spec, opt)
	mapper, units, err := planJob(opt, gpus, spec.GPU.VRAMBytes)
	if err != nil {
		return nil, err
	}
	rm := &recordingMapper{rayCastMapper: mapper, part: partitionerOf(&opt), reducers: gpus, units: map[int]*unitRecord{}}
	chunks := make([]mapreduce.Chunk, 0, len(brickIDs))
	for _, id := range brickIDs {
		if id < 0 || id >= len(units) {
			return nil, fmt.Errorf("core: unit %d outside job of %d units", id, len(units))
		}
		if _, dup := rm.units[id]; dup {
			return nil, fmt.Errorf("core: unit %d requested twice", id)
		}
		rm.units[id] = &unitRecord{stripe: BrickStripe{Brick: id}, charges: UnitCharges{Unit: id}}
		chunks = append(chunks, unitChunk{id: id, bricks: units[id]})
	}

	inst, err := instance(spec, devWorkers)
	if err != nil {
		return nil, err
	}
	defer planFrame(mapper.src, chunks)()
	cfg := jobConfig(&opt, inst, min(inst.TotalGPUs(), len(chunks)), mapreduce.Mapper[composite.Fragment, []*volume.BrickData](rm), chunks)
	cfg.MakeReducer = func(int) mapreduce.Reducer[composite.Fragment] { return discardReducer[composite.Fragment]{} }
	if _, err := mapreduce.Run(cfg); err != nil {
		return nil, err
	}
	ids := slices.Sorted(maps.Keys(rm.units))
	res := &MapResult{}
	for _, id := range ids {
		res.Stripes = append(res.Stripes, rm.units[id].stripe)
		res.Charges = append(res.Charges, rm.units[id].charges)
	}
	return res, nil
}
