package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/schedule"
	"gvmr/internal/sim"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// SeqBenchConfig records everything needed to interpret a sequence
// benchmark row: the workload and the machine it ran on.
type SeqBenchConfig struct {
	Scale      string `json:"scale"`
	Dataset    string `json:"dataset"`
	Dims       string `json:"dims"`
	GPUs       int    `json:"gpus"`
	Frames     int    `json:"frames"`
	ImageSize  int    `json:"image_size"`
	Shading    bool   `json:"shading"`
	NoSkip     bool   `json:"noskip"` // timed legs rendered with skipping disabled
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"parallel_workers"`
}

// SeqBenchLeg is one timed execution of the sequence.
type SeqBenchLeg struct {
	WallSeconds float64 `json:"wall_seconds"`
	Workers     int     `json:"workers"`
}

// SeqBenchVirtual carries the simulation-side figures of merit — the
// paper-comparable numbers, identical between the two legs by the
// scheduler's determinism contract.
type SeqBenchVirtual struct {
	TotalSeconds    float64   `json:"total_seconds"`
	MeanFPS         float64   `json:"mean_fps"`
	VPSMillions     float64   `json:"vps_millions"`
	PerFrameSeconds []float64 `json:"per_frame_seconds"`
}

// SeqBenchSkipLeg is the virtual-time record of the orbit rendered with
// empty-space skipping in one state.
type SeqBenchSkipLeg struct {
	VirtualSeconds float64 `json:"virtual_seconds"`
	Samples        int64   `json:"samples"`
	SamplesSkipped int64   `json:"samples_skipped"`
	MacrocellSteps int64   `json:"macrocell_steps"`
}

// SeqBenchSkip is the committed macrocell-grid A/B: the same orbit
// rendered with the macrocell DDA on and off. BitIdentical proves the
// acceleration structure changed no pixel; SampleReduction is the
// fraction of texture fetches it made unnecessary (invisible samples
// leapt, homogeneous ones answered from the grid: the on leg's samples +
// samples_skipped is the off leg's samples); SpeedupVirtual is the net
// modeled win (fetches not issued minus the charged macrocell traversal).
type SeqBenchSkip struct {
	On              SeqBenchSkipLeg `json:"on"`
	Off             SeqBenchSkipLeg `json:"off"`
	SampleReduction float64         `json:"sample_reduction"`
	SpeedupVirtual  float64         `json:"speedup_virtual"`
	BitIdentical    bool            `json:"bit_identical"`
}

// SeqBench is the machine-readable record cmd/benchsuite writes to
// BENCH_fig2.json: one multi-frame orbit of the Figure 2 skull dataset,
// rendered serially and through the parallel frame scheduler, with
// wall-clock for both, proof the outputs matched bit for bit, and the
// empty-space-skipping on/off comparison.
type SeqBench struct {
	Config       SeqBenchConfig  `json:"config"`
	Serial       SeqBenchLeg     `json:"serial"`
	Parallel     SeqBenchLeg     `json:"parallel"`
	SpeedupWall  float64         `json:"speedup_wall"`
	BitIdentical bool            `json:"bit_identical"`
	Virtual      SeqBenchVirtual `json:"virtual"`
	Skip         SeqBenchSkip    `json:"skip"`
}

// RunSeqBench renders a `frames`-frame orbit of the skull dataset at the
// scale's Figure 2 size on a 4-GPU cluster, once serially (frames back
// to back on one cluster) and once through the parallel frame scheduler,
// and reports wall-clock for both plus the (identical) virtual figures
// of merit. Both legs go through core.RenderFrames, which returns every
// frame's image and statistics, so bit-identity is verified per frame —
// image digests, per-frame virtual runtimes and full JobStats — not
// just on the final frame. The staging cache is pre-warmed with a
// single untimed frame so neither leg pays dataset materialisation.
func RunSeqBench(sc Scale, frames int) (*SeqBench, error) {
	dims := volume.Cube(sc.Fig2Edge)
	src, err := dataset.New(dataset.Skull, dims)
	if err != nil {
		return nil, err
	}
	tf, err := transfer.Preset(dataset.Skull)
	if err != nil {
		return nil, err
	}
	opt := core.Options{
		Source: src, TF: tf,
		Width: sc.ImageSize, Height: sc.ImageSize,
		Shading:     true,
		NoEmptySkip: sc.NoSkip,
	}
	spec := cluster.AC(4)
	cams, err := core.OrbitCameras(src, sc.ImageSize, sc.ImageSize, frames, 360)
	if err != nil {
		return nil, err
	}

	// Pre-warm the staging cache (materialise the dataset once, untimed)
	// so the serial and parallel legs both stage out of host memory.
	warm, err := spec.Instance()
	if err != nil {
		return nil, err
	}
	if _, err := core.Render(warm, opt); err != nil {
		return nil, err
	}

	run := func(serial bool) ([]*core.Result, float64, int, error) {
		cl, err := spec.Instance()
		if err != nil {
			return nil, 0, 0, err
		}
		o := opt
		o.SequenceSerial = serial
		workers := 1
		if !serial {
			workers = schedule.Workers(0, frames)
		}
		start := time.Now()
		results, err := core.RenderFrames(cl, o, cams)
		return results, time.Since(start).Seconds(), workers, err
	}
	serial, serialWall, _, err := run(true)
	if err != nil {
		return nil, err
	}
	parallel, parWall, parWorkers, err := run(false)
	if err != nil {
		return nil, err
	}

	// Per-frame bit-identity: every image, every virtual runtime, every
	// full JobStats record.
	identical := len(serial) == len(parallel)
	var total sim.Time
	perFrame := make([]float64, 0, len(serial))
	for i := range serial {
		if !identical {
			break
		}
		identical = serial[i].Image.Digest() == parallel[i].Image.Digest() &&
			serial[i].Runtime == parallel[i].Runtime &&
			reflect.DeepEqual(serial[i].Stats, parallel[i].Stats)
		total += serial[i].Runtime
		perFrame = append(perFrame, serial[i].Runtime.Seconds())
	}

	// Empty-space-skipping A/B: the same orbit with the macrocell DDA in
	// the opposite state to the timed legs; the state already rendered is
	// reused. Virtual time, sample counts and digests prove the win and
	// the bit-identity contract frame by frame.
	other, err := func() ([]*core.Result, error) {
		cl, err := spec.Instance()
		if err != nil {
			return nil, err
		}
		o := opt
		o.NoEmptySkip = !sc.NoSkip
		return core.RenderFrames(cl, o, cams)
	}()
	if err != nil {
		return nil, err
	}
	onRes, offRes := serial, other
	if sc.NoSkip {
		onRes, offRes = other, serial
	}
	skipLeg := func(results []*core.Result) SeqBenchSkipLeg {
		var leg SeqBenchSkipLeg
		var tot sim.Time
		for _, r := range results {
			tot += r.Runtime
			leg.Samples += r.Stats.TotalSamples
			leg.SamplesSkipped += r.Stats.TotalSamplesSkipped
			leg.MacrocellSteps += r.Stats.TotalCells
		}
		leg.VirtualSeconds = tot.Seconds()
		return leg
	}
	skip := SeqBenchSkip{On: skipLeg(onRes), Off: skipLeg(offRes), BitIdentical: true}
	for i := range onRes {
		if onRes[i].Image.Digest() != offRes[i].Image.Digest() {
			skip.BitIdentical = false
			break
		}
	}
	if skip.Off.Samples > 0 {
		skip.SampleReduction = 1 - float64(skip.On.Samples)/float64(skip.Off.Samples)
	}
	if skip.On.VirtualSeconds > 0 {
		skip.SpeedupVirtual = skip.Off.VirtualSeconds / skip.On.VirtualSeconds
	}

	voxels := float64(dims.Voxels()) * float64(frames)
	out := &SeqBench{
		Config: SeqBenchConfig{
			Scale:      sc.Name,
			Dataset:    dataset.Skull,
			Dims:       dims.String(),
			GPUs:       4,
			Frames:     frames,
			ImageSize:  sc.ImageSize,
			Shading:    true,
			NoSkip:     sc.NoSkip,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Workers:    schedule.Workers(0, frames),
		},
		Serial:       SeqBenchLeg{WallSeconds: serialWall, Workers: 1},
		Parallel:     SeqBenchLeg{WallSeconds: parWall, Workers: parWorkers},
		BitIdentical: identical,
		Skip:         skip,
		Virtual: SeqBenchVirtual{
			TotalSeconds:    total.Seconds(),
			MeanFPS:         float64(frames) / total.Seconds(),
			VPSMillions:     voxels / total.Seconds() / 1e6,
			PerFrameSeconds: perFrame,
		},
	}
	if parWall > 0 {
		out.SpeedupWall = serialWall / parWall
	}
	return out, nil
}

// WriteJSON writes the record, indented, to path.
func (b *SeqBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
