package core

import (
	"fmt"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/sim"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// Result is one rendered frame plus everything the evaluation reports
// about it.
type Result struct {
	Image *img.Image
	// Stats are the MapReduce engine statistics (stage breakdown, wire
	// traffic, §6.3 decomposition).
	Stats *mapreduce.JobStats
	Grid  *volume.Grid
	GPUs  int
	// Runtime is the full-frame virtual time: the MapReduce job plus,
	// for binary swap, the exchange rounds. Bricking and stitching are
	// excluded, as in the paper's §5.
	Runtime sim.Time
	// SwapTime is the binary-swap exchange duration (zero for direct
	// send).
	SwapTime sim.Time
	// Voxels is the volume size; FPS and VPS are the paper's figures of
	// merit (Figure 4).
	Voxels      int64
	FPS         float64
	VPSMillions float64
}

// planJob plans one render job on GPUs with vramBytes of device memory
// each: the brick grid, the camera (opt.Camera or the fitted default
// view), the mapper over the staging-cached source and the job's map
// units. Render, MapBricks and PlanReplay all plan through it, which is
// what makes a unit's fragments and record in MapBricks bit-identical to
// the same unit's inside Render. opt must already hold its defaults.
func planJob(opt Options, gpus int, vramBytes int64) (*rayCastMapper, [][]volume.Brick, error) {
	grid, err := planBricks(opt.Source.Dims(), gpus, opt.BricksPerGPU, vramBytes)
	if err != nil {
		return nil, nil, err
	}
	cam, err := jobCamera(opt, grid)
	if err != nil {
		return nil, nil, err
	}
	// Brick staging reads through the process-wide staging cache: the
	// source is materialised at most once per identity and every stage
	// becomes a row-wise copy (virtual disk/PCIe time is still charged by
	// the replayed job as configured). A source that does not declare
	// volume.Stageable passes through uncached.
	mapper := &rayCastMapper{
		src:  volume.Cached(opt.Source),
		grid: grid,
		cam:  cam,
		prm:  opt.renderParams(),
		gpus: gpus,
		part: partitionerOf(&opt),
	}
	if opt.Sampler == Slicing {
		mapper.sampler = render.CastRaySlicing
	}
	if err := mapper.prm.Validate(); err != nil {
		return nil, nil, err
	}
	units, err := jobUnits(grid, opt.Partition)
	if err != nil {
		return nil, nil, err
	}
	return mapper, units, nil
}

// jobCamera is the job's camera: opt.Camera, or the fitted default view
// of the grid.
func jobCamera(opt Options, grid *volume.Grid) (*camera.Camera, error) {
	cam := opt.Camera
	if cam == nil {
		var err error
		if cam, err = camera.Fit(grid.Space.Bounds(), opt.Width, opt.Height); err != nil {
			return nil, err
		}
	}
	if cam.Width != opt.Width || cam.Height != opt.Height {
		return nil, fmt.Errorf("core: camera image %dx%d != options %dx%d",
			cam.Width, cam.Height, opt.Width, opt.Height)
	}
	return cam, nil
}

// jobFlushBytes is a render job's streaming-send threshold: fragments go
// to a reducer in batches of 256 KiB.
const jobFlushBytes = 256 << 10

// setRates fills the paper's figures of merit from Runtime.
func (r *Result) setRates() {
	if r.Runtime > 0 {
		r.FPS = 1 / r.Runtime.Seconds()
		r.VPSMillions = float64(r.Voxels) / r.Runtime.Seconds() / 1e6
	}
}

// BlankImage returns opt's frame before any fragment lands: every pixel
// the color of one no fragment reaches, the background alone. Every fold
// of a frame's fragments — in process or distributed — writes into it.
func BlankImage(opt Options) *img.Image {
	return img.New(opt.Width, opt.Height, composite.Finalize(vec.V4{}, opt.Background))
}

// Render renders one frame of the source volume on the cluster and
// returns the image plus full statistics. It runs the frame's one
// pipeline (DESIGN.md §3): it maps every unit on the host, folds the
// stripes into the image (composite.FoldRange, or binary swap's
// exchange), and charges the frame by replaying the units' records
// through the engine's job on cl, which it drives to completion.
func Render(cl *cluster.Cluster, opt Options) (*Result, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	if opt.InSitu && opt.FromDisk {
		return nil, fmt.Errorf("core: InSitu and FromDisk are mutually exclusive")
	}
	if opt.Compositor != DirectSend && opt.Compositor != BinarySwap {
		return nil, fmt.Errorf("core: unknown compositor %d", opt.Compositor)
	}
	plan, err := planReplay(cl.Params, opt)
	if err != nil {
		return nil, err
	}
	m, gpus := plan.m, plan.m.gpus
	if opt.Compositor == BinarySwap && gpus&(gpus-1) != 0 {
		return nil, fmt.Errorf("core: binary swap needs a power-of-two GPU count, got %d", gpus)
	}
	defer planFrame(m.src, plan.units)()

	stripes := make([][]composite.Fragment, len(plan.units))
	charges := make([]UnitCharges, len(plan.units))
	for _, u := range mapOrder(len(plan.units), gpus) {
		if stripes[u], charges[u], err = m.mapUnit(u, plan.units[u], cl.Device(u%gpus).Workers); err != nil {
			return nil, err
		}
	}
	stats, mappedBy, err := plan.replayJob(cl, charges)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Image:   BlankImage(opt),
		Stats:   stats,
		Grid:    m.grid,
		GPUs:    gpus,
		Runtime: stats.Makespan,
		Voxels:  opt.Source.Dims().Voxels(),
	}
	if opt.Compositor == DirectSend {
		composite.FoldRange(stripes, 0, int32(opt.Width*opt.Height), opt.Background, res.Image.SetKey)
	} else {
		// Each GPU's partial image: the fragments of the units it mapped,
		// per pixel, in unit order.
		parts := make([]map[int32][]composite.Fragment, gpus)
		for i := range parts {
			parts[i] = map[int32][]composite.Fragment{}
		}
		for u, frags := range stripes {
			part := parts[mappedBy[u]]
			for _, f := range frags {
				part[f.Key] = append(part[f.Key], f)
			}
		}
		if res.SwapTime, err = binarySwap(cl, m.cam, parts, opt.Background, res.Image, opt.Trace); err != nil {
			return nil, err
		}
		res.Runtime += res.SwapTime
	}
	res.setRates()
	return res, nil
}

// mapOrder is the order Render maps a job's units in on the host: the
// order the engine's static loaders stage them in when the GPUs keep
// pace — GPU by GPU, each fills its two-deep pipeline (the unit it maps
// and the one staged behind it; unit u is GPU u mod gpus's), then the
// rest follow round by round. Neither bits nor virtual time depend on
// it, but a demand pager's reads do: its LRU keeps what the order
// revisits soonest, and this order reads what the engine's staging read
// (DESIGN.md §14).
func mapOrder(units, gpus int) []int {
	order := make([]int, 0, units)
	for g := 0; g < gpus; g++ {
		for u := g; u < min(units, g+2*gpus); u += gpus {
			order = append(order, u)
		}
	}
	for u := 2 * gpus; u < units; u++ {
		order = append(order, u)
	}
	return order
}
