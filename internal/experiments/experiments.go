// Package experiments regenerates every table and figure of the paper's
// evaluation (§5, §6.3, footnote 1, and the §3 micro-costs), plus the
// §6.1 design ablations, all on the virtual clock. cmd/benchsuite is its
// one entry point, so every reported number comes from exactly one code
// path (see DESIGN.md §4 for the experiment index); wall-clock frame
// timing belongs to bench/.
package experiments

import (
	"fmt"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/mapreduce"
	"gvmr/internal/schedule"
	"gvmr/internal/sim"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// Scale sizes the experiment sweep. Paper() is the full evaluation; Quick()
// is a minutes-scale smoke configuration for development.
type Scale struct {
	Name      string
	ImageSize int
	// Edges are the cube resolutions of the Figure 3/4 sweep.
	Edges []int
	// GPUCounts is the paper's 1..32 GPU axis.
	GPUCounts []int
	// Fig2Edge sizes the Figure 2 dataset renderings.
	Fig2Edge int
	// Sec63Edge sizes the §6.3 bottleneck analysis volume (paper: 1024³).
	Sec63Edge int
	// Baseline comparison (footnote 1). BaselineEdge is the shared-volume
	// comparison; BaselineGPUEdge is the volume used for the GPU peak-VPS
	// figure (the paper compares its best rate against ParaView's
	// published one).
	BaselineRanks        int
	BaselineRanksPerNode int
	BaselineEdge         int
	BaselineGPUEdge      int
	BaselineGPUs         int
	// AblationEdge sizes the §6.1 ablation renders.
	AblationEdge int
}

// Paper returns the full evaluation scale: 512² images, 128³–1024³
// volumes, 1–32 GPUs — the paper's exact parameter grid.
func Paper() Scale {
	return Scale{
		Name:      "paper",
		ImageSize: 512,
		Edges:     []int{128, 256, 512, 1024},
		GPUCounts: []int{1, 2, 4, 8, 16, 32},
		Fig2Edge:  256,
		Sec63Edge: 1024,

		BaselineRanks:        512,
		BaselineRanksPerNode: 2,
		BaselineEdge:         512,
		BaselineGPUEdge:      1024,
		BaselineGPUs:         16,

		AblationEdge: 256,
	}
}

// Quick returns a development-sized configuration.
func Quick() Scale {
	return Scale{
		Name:      "quick",
		ImageSize: 128,
		Edges:     []int{32, 64, 128},
		GPUCounts: []int{1, 2, 4, 8},
		Fig2Edge:  64,
		Sec63Edge: 128,

		BaselineRanks:        64,
		BaselineRanksPerNode: 2,
		BaselineEdge:         64,
		BaselineGPUEdge:      128,
		BaselineGPUs:         8,

		AblationEdge: 64,
	}
}

// RenderConfig renders one frame of the named dataset at the given dims on
// a fresh AC cluster with the given GPU count. mutate may adjust options
// before the run.
func RenderConfig(ds string, dims volume.Dims, gpus, imgSize int, mutate func(*core.Options)) (*core.Result, error) {
	return RenderConfigWorkers(ds, dims, gpus, imgSize, 0, mutate)
}

// RenderConfigWorkers is RenderConfig with a cap on per-device host
// parallelism (0 means GOMAXPROCS). Parallel sweeps cap it so concurrent
// cells don't oversubscribe the machine; the cap changes wall-clock
// behavior only — virtual times and images are identical at any setting.
func RenderConfigWorkers(ds string, dims volume.Dims, gpus, imgSize, devWorkers int, mutate func(*core.Options)) (*core.Result, error) {
	cl, err := cluster.AC(gpus).Instance()
	if err != nil {
		return nil, err
	}
	cl.SetDeviceWorkers(devWorkers)
	src, err := dataset.New(ds, dims)
	if err != nil {
		return nil, err
	}
	tf, err := transfer.Preset(ds)
	if err != nil {
		return nil, err
	}
	opt := core.Options{
		Source: src,
		TF:     tf,
		Width:  imgSize,
		Height: imgSize,
		GPUs:   gpus,
	}
	if mutate != nil {
		mutate(&opt)
	}
	return core.Render(cl, opt)
}

// SweepRow is one (volume size, GPU count) cell of the Figure 3/4 grid.
type SweepRow struct {
	Dataset string
	Dims    volume.Dims
	GPUs    int
	Bricks  int
	Stage   mapreduce.StageTimes
	Runtime sim.Time
	FPS     float64
	VPSM    float64 // millions of voxels per second
	// §6.3 decomposition of the map phase.
	MapCompute sim.Time
	MapComm    sim.Time
	Emitted    int64
}

// Sweep renders the full (edge × GPU count) grid with the skull dataset
// (the paper's size-scaling workload) and returns one row per rendered
// configuration, in grid order. Configurations whose volume exceeds a
// single device's VRAM are skipped at 1 GPU, exactly as the paper's
// Figure 3 starts the 1024³ series at 2 GPUs.
//
// Every cell is an independent simulation on its own cluster instance, so
// cells fan out across host cores (GOMAXPROCS=1 runs them one at a
// time); rows come back stitched in grid order and are bit-identical to a
// serial sweep.
func Sweep(sc Scale) ([]SweepRow, error) {
	vram := cluster.AC(1).GPU.VRAMBytes
	type cell struct {
		dims volume.Dims
		gpus int
	}
	var cells []cell
	for _, edge := range sc.Edges {
		dims := volume.Cube(edge)
		for _, gpus := range sc.GPUCounts {
			if gpus == 1 && dims.Bytes() >= vram {
				continue // cannot hold the volume on one device in core
			}
			cells = append(cells, cell{dims: dims, gpus: gpus})
		}
	}
	workers := schedule.Workers(len(cells))
	devWorkers := schedule.DeviceWorkers(workers)
	return schedule.Map(workers, len(cells), func(i int) (SweepRow, error) {
		c := cells[i]
		res, err := RenderConfigWorkers(dataset.Skull, c.dims, c.gpus, sc.ImageSize, devWorkers, nil)
		if err != nil {
			return SweepRow{}, fmt.Errorf("sweep %v on %d GPUs: %w", c.dims, c.gpus, err)
		}
		return SweepRow{
			Dataset:    dataset.Skull,
			Dims:       c.dims,
			GPUs:       c.gpus,
			Bricks:     res.Grid.NumBricks(),
			Stage:      res.Stats.MeanStage,
			Runtime:    res.Runtime,
			FPS:        res.FPS,
			VPSM:       res.VPSMillions,
			MapCompute: res.Stats.MapCompute,
			MapComm:    res.Stats.MapComm,
			Emitted:    res.Stats.TotalEmitted,
		}, nil
	})
}
