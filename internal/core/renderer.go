package core

import (
	"cmp"
	"fmt"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/sim"
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
// view), and the mapper over the staging-cached source, plus the job's
// map units. Render and MapBricks both plan through it, which is what
// makes a unit's fragments in MapBricks bit-identical to the same unit's
// inside Render. opt must already hold its defaults.
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
	// source is materialised at most once per identity and every Stage
	// call becomes a row-wise copy (virtual disk/PCIe time is still
	// charged by the engine as configured). A source that does not
	// declare volume.Stageable passes through uncached.
	mapper := &rayCastMapper{
		src:  volume.Cached(opt.Source),
		grid: grid,
		cam:  cam,
		prm:  opt.renderParams(),
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

// jobConfig builds the MapReduce configuration of a render job mapping
// chunks with `workers` GPUs of cl; the caller adds the reducers. The
// engine charges the per-job fixed overhead (the paper's runtimes include
// full frame setup) and fragments stream to the reducers in
// jobFlushBytes batches. Render and the replay both run it, with the
// fragment and its recorded charges as the value types.
func jobConfig[V, S any](o *Options, cl *cluster.Cluster, workers int,
	m mapreduce.Mapper[V, S], chunks []mapreduce.Chunk) mapreduce.Config[V, S] {
	cfg := mapreduce.Config[V, S]{
		Cluster:     cl,
		Workers:     workers,
		Mapper:      m,
		Partitioner: o.Partitioner,
		KeyRange:    int32(o.Width * o.Height),
		ValueBytes:  composite.FragmentBytes - 4,
		Chunks:      chunks,
		Assign:      o.Assign,
		FlushBytes:  jobFlushBytes,
		FromDisk:    o.FromDisk,
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
	return cfg
}

// setRates fills the paper's figures of merit from Runtime.
func (r *Result) setRates() {
	if r.Runtime > 0 {
		r.FPS = 1 / r.Runtime.Seconds()
		r.VPSMillions = float64(r.Voxels) / r.Runtime.Seconds() / 1e6
	}
}

// Render renders one frame of the source volume on the cluster and
// returns the image plus full statistics. It drives the cluster's
// simulation environment to completion.
func Render(cl *cluster.Cluster, opt Options) (*Result, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	gpus := cmp.Or(opt.GPUs, cl.TotalGPUs())
	if gpus < 1 || gpus > cl.TotalGPUs() {
		return nil, fmt.Errorf("core: %d GPUs requested, cluster has %d", gpus, cl.TotalGPUs())
	}
	mapper, units, err := planJob(opt, gpus, cl.Params.GPU.VRAMBytes)
	if err != nil {
		return nil, err
	}
	defer planFrame(mapper.src, units)()

	cfg := jobConfig(&opt, cl, gpus, mapper, unitChunks(units))
	if opt.InSitu && opt.FromDisk {
		return nil, fmt.Errorf("core: InSitu and FromDisk are mutually exclusive")
	}

	res := &Result{
		Grid:   mapper.grid,
		GPUs:   gpus,
		Voxels: opt.Source.Dims().Voxels(),
	}
	background := composite.Finalize(composite.Fragment{}.Color(), opt.Background)
	res.Image = img.New(opt.Width, opt.Height, background)

	switch opt.Compositor {
	case DirectSend:
		reducers := make([]*imageReducer, 0, gpus)
		cfg.MakeReducer = func(int) mapreduce.Reducer[composite.Fragment] {
			r := &imageReducer{background: opt.Background}
			reducers = append(reducers, r)
			return r
		}
		stats, err := mapreduce.Run(cfg)
		if err != nil {
			return nil, err
		}
		res.Stats = stats
		res.Runtime = stats.Makespan
		// Stitch (excluded from timings, as in the paper).
		for _, r := range reducers {
			for _, px := range r.pixels {
				res.Image.SetKey(px.Key, px.Color)
			}
		}

	case BinarySwap:
		if gpus&(gpus-1) != 0 {
			return nil, fmt.Errorf("core: binary swap needs a power-of-two GPU count, got %d", gpus)
		}
		collectors := make([]*fragmentCollector, 0, gpus)
		cfg.LocalReduce = true
		cfg.MakeReducer = func(int) mapreduce.Reducer[composite.Fragment] {
			r := &fragmentCollector{pixels: map[int32][]composite.Fragment{}}
			collectors = append(collectors, r)
			return r
		}
		stats, err := mapreduce.Run(cfg)
		if err != nil {
			return nil, err
		}
		res.Stats = stats
		swap, err := binarySwap(cl, mapper.cam, collectors, opt.Background, res.Image, opt.Trace)
		if err != nil {
			return nil, err
		}
		res.SwapTime = swap
		res.Runtime = stats.Makespan + swap

	default:
		return nil, fmt.Errorf("core: unknown compositor %d", opt.Compositor)
	}

	res.setRates()
	return res, nil
}
