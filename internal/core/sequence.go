package core

import (
	"fmt"
	"math"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/sim"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// SequenceStats sums the per-frame MapReduce statistics of a sequence in
// frame order. Serial and parallel execution produce bit-identical
// values — the scheduler's determinism contract, locked down by the
// golden-image test suite.
type SequenceStats struct {
	// Stage is the per-frame MeanStage decomposition summed over frames.
	Stage mapreduce.StageTimes
	// MapCompute/MapComm sum the §6.3 map-phase decomposition.
	MapCompute sim.Time
	MapComm    sim.Time
	// Wire traffic totals.
	TotalEmitted  int64
	TotalReceived int64
	BytesOnWire   int64
	Messages      int64
}

func aggregateStats(frames []*mapreduce.JobStats) SequenceStats {
	var agg SequenceStats
	for _, s := range frames {
		if s == nil {
			continue
		}
		agg.Stage.Map += s.MeanStage.Map
		agg.Stage.PartitionIO += s.MeanStage.PartitionIO
		agg.Stage.Sort += s.MeanStage.Sort
		agg.Stage.Reduce += s.MeanStage.Reduce
		agg.MapCompute += s.MapCompute
		agg.MapComm += s.MapComm
		agg.TotalEmitted += s.TotalEmitted
		agg.TotalReceived += s.TotalReceived
		agg.BytesOnWire += s.BytesOnWire
		agg.Messages += s.Messages
	}
	return agg
}

// SequenceResult summarises a multi-frame animation render: the
// interactive-visualization use the paper motivates (§4.2: "scientists
// care about the frame rate of their visualization").
type SequenceResult struct {
	Frames    int
	Total     sim.Time
	PerFrame  []sim.Time
	MeanFPS   float64
	LastImage *img.Image
	// FrameStats are each frame's full MapReduce statistics, in frame
	// order.
	FrameStats []*mapreduce.JobStats
	// Agg sums the per-frame statistics in frame order.
	Agg SequenceStats
	// Workers is the scheduler pool width the render used (1 means the
	// frames executed one at a time).
	Workers int
}

// OrbitCameras builds `frames` cameras orbiting the volume's fitted
// default view around its vertical axis by orbitDegrees in total —
// the camera path RenderSequence renders and the public RenderFrames
// API accepts verbatim.
//
// A partial orbit reaches its endpoint: the last camera sits at exactly
// orbitDegrees (a 90° sweep over 8 frames spaces them 90/7° apart). A
// full-turn orbit (any multiple of 360°) instead spaces frames
// orbit/frames apart, so the would-be final frame — a duplicate of frame
// zero — is not rendered twice. With frames == 1 the single camera is
// the fitted base view regardless of orbitDegrees; use OrbitCamera for
// one frame at a specific angle.
func OrbitCameras(src volume.Source, width, height, frames int, orbitDegrees float64) ([]*camera.Camera, error) {
	if frames < 1 {
		return nil, fmt.Errorf("core: %d frames", frames)
	}
	base, err := fitOrbit(src, width, height)
	if err != nil {
		return nil, err
	}
	denom := float64(frames)
	if frames > 1 && math.Mod(orbitDegrees, 360) != 0 {
		denom = float64(frames - 1)
	}
	cams := make([]*camera.Camera, frames)
	for f := 0; f < frames; f++ {
		cams[f], err = base.at(orbitDegrees * math.Pi / 180 * float64(f) / denom)
		if err != nil {
			return nil, err
		}
	}
	return cams, nil
}

// OrbitCamera builds the single camera at `degrees` along the fitted
// orbit — the view OrbitCameras(…, frames, orbit) places its cameras on.
// It is the per-request camera constructor the render service uses.
func OrbitCamera(src volume.Source, width, height int, degrees float64) (*camera.Camera, error) {
	base, err := fitOrbit(src, width, height)
	if err != nil {
		return nil, err
	}
	return base.at(degrees * math.Pi / 180)
}

// orbitBase is the shared geometry of a fitted orbit: one definition of
// the camera path, so sequence frames and the render service's
// single-frame requests at equal angles are the same view bit for bit.
type orbitBase struct {
	fovY          float64
	width, height int
	center, rel   vec.V3
}

func fitOrbit(src volume.Source, width, height int) (orbitBase, error) {
	sp := volume.NewSpace(src.Dims())
	base, err := camera.Fit(sp.Bounds(), width, height)
	if err != nil {
		return orbitBase{}, err
	}
	center := sp.Bounds().Center()
	return orbitBase{
		fovY: base.FovY, width: width, height: height,
		center: center, rel: base.Eye.Sub(center),
	}, nil
}

// at builds the camera `angle` radians along the orbit.
func (b orbitBase) at(angle float64) (*camera.Camera, error) {
	eye := b.center.Add(vec.RotateY(angle).MulPoint(b.rel))
	return camera.New(eye, b.center, vec.New3(0, 1, 0), b.fovY, b.width, b.height)
}

// RenderSequence renders `frames` frames while orbiting the camera around
// the volume by orbitDegrees in total, and returns per-frame virtual
// times and the sustained frame rate. Virtual time accumulates on the
// caller's cluster across frames, as a real interactive session would.
// The per-frame images are rendered fully; only the last is retained.
//
// The frames are RenderFrames' frames over OrbitCameras: independent
// simulations rendered concurrently across host cores (the
// internal/schedule worker pool), each on a fresh instance of the
// cluster's spec, with the per-frame virtual times stitched back into
// serial accounting — images, per-frame times and aggregated statistics
// are bit-identical to back-to-back rendering, which a non-nil
// Options.Trace selects so the trace stays one timeline.
func RenderSequence(cl *cluster.Cluster, opt Options, frames int, orbitDegrees float64) (*SequenceResult, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	// Cross-frame staging reuse needs no wiring here: Render routes every
	// frame's source through the process-wide staging cache (keyed by
	// source identity), so the field is evaluated once and every frame
	// stages out of the same materialised volume — concurrent frames
	// block briefly while the first to arrive fills the cache, then all
	// stage concurrently (the cache was built for exactly this).
	cams, err := OrbitCameras(opt.Source, opt.Width, opt.Height, frames, orbitDegrees)
	if err != nil {
		return nil, err
	}
	last := len(cams) - 1
	out, workers, err := renderFrames(cl, opt, cams, func(f int) bool { return f == last })
	if err != nil {
		return nil, err
	}
	res := &SequenceResult{Frames: len(cams), Workers: workers, LastImage: out[last].Result.Image}
	for _, fr := range out {
		res.PerFrame = append(res.PerFrame, fr.Time)
		res.FrameStats = append(res.FrameStats, fr.Result.Stats)
		res.Total += fr.Time
	}
	res.Agg = aggregateStats(res.FrameStats)
	if res.Total > 0 {
		res.MeanFPS = float64(res.Frames) / res.Total.Seconds()
	}
	return res, nil
}
