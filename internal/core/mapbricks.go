package core

import (
	"cmp"
	"fmt"
	"slices"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
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
	// what mapping it charges the engine of the whole job (replay.go).
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

// MapBricks maps the given unit IDs of a render job on the host and
// returns each unit's fragment stripe and charges. It is the remote half
// of the distributed direct-send pipeline: a coordinator plans the full
// grid, shards the unit IDs across nodes, each node calls MapBricks for
// its share, and the coordinator replays the charges. Without
// Options.Partition a unit is a brick and the IDs are brick IDs; with a
// Partition they index the partition's units.
//
// The grid is planned from opt exactly as Render plans it, and each unit
// is mapped by the loop Render maps it with (rayCastMapper.mapUnit), so
// the fragments and charges of unit i here are bit-identical to what unit
// i produces and charges inside a single-process Render of the same
// options — the invariant the distributed golden tests pin down. No job
// is simulated: nothing here reads the options that shape only the
// engine's schedule (Assign, FromDisk, InSitu, Trace), and only spec's
// planning inputs (GPU VRAM, and its GPU count when opt.GPUs is zero)
// matter, which PlanGrid documents.
//
// devWorkers caps the host cores a brick's kernel uses (≤ 0 means all of
// GOMAXPROCS), as in RenderOn.
func MapBricks(spec cluster.Spec, opt Options, brickIDs []int, devWorkers int) (*MapResult, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	if len(brickIDs) == 0 {
		return nil, fmt.Errorf("core: no bricks to map")
	}
	m, units, err := planJob(opt, specGPUs(spec, opt), spec.GPU.VRAMBytes)
	if err != nil {
		return nil, err
	}
	ids := slices.Sorted(slices.Values(brickIDs))
	sel := make([][]volume.Brick, len(ids))
	for i, id := range ids {
		if id < 0 || id >= len(units) {
			return nil, fmt.Errorf("core: unit %d outside job of %d units", id, len(units))
		}
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("core: unit %d requested twice", id)
		}
		sel[i] = units[id]
	}
	defer planFrame(m.src, sel)()

	res := &MapResult{}
	for i, id := range ids {
		frags, charges, err := m.mapUnit(id, sel[i], devWorkers)
		if err != nil {
			return nil, err
		}
		res.Stripes = append(res.Stripes, BrickStripe{Brick: id, Frags: frags})
		res.Charges = append(res.Charges, charges)
	}
	return res, nil
}
