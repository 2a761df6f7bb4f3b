// Package dist crosses the process boundary: it shards one render job's
// brick map-tasks across remote gvmrd worker nodes over HTTP and
// composites the returned fragment stripes locally — the paper's
// direct-send MapReduce topology stretched over a real network, in the
// mold of Hassan et al.'s distributed GPU framework (brick renderers +
// direct-send compositing on a display node).
//
// The split is exact: a worker node runs core.MapBricks for its assigned
// brick IDs (the map phase, bit-identical per brick to a single-process
// render), ships each brick's surviving fragments back as a depth-tagged
// stripe (raw little-endian float32, like /render's format=raw) beside
// each unit's engine charges, and the coordinator composites all stripes
// with internal/composite and replays the charges for the frame's
// virtual time, the one a single-process render is charged (DESIGN.md
// §9). Because stripes are canonical per brick — emission order,
// placement-independent — the final image is byte-identical to the
// single-process render no matter how bricks are placed, re-placed after
// a node death, or hedged (DESIGN.md §9 gives the argument; the
// distributed golden tests enforce it against the committed digests).
package dist

import (
	"fmt"
	"math"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume/dataset"
)

// CameraSpec is an exact wire encoding of a camera: the float32 fields
// round-trip bit-for-bit through JSON (encoding/json emits the shortest
// decimal that reparses to the same bits), so coordinator and worker
// construct identical cameras and therefore identical rays.
type CameraSpec struct {
	Eye    [3]float32 `json:"eye"`
	Center [3]float32 `json:"center"`
	Up     [3]float32 `json:"up"`
	FovY   float64    `json:"fovy"`
}

// CameraFrom captures a camera's defining fields.
func CameraFrom(c *camera.Camera) CameraSpec {
	return CameraSpec{
		Eye:    [3]float32{c.Eye.X, c.Eye.Y, c.Eye.Z},
		Center: [3]float32{c.Center.X, c.Center.Y, c.Center.Z},
		Up:     [3]float32{c.Up.X, c.Up.Y, c.Up.Z},
		FovY:   c.FovY,
	}
}

func v3(a [3]float32) vec.V3 { return vec.V3{X: a[0], Y: a[1], Z: a[2]} }

// Camera reconstructs the camera for a width×height image. camera.New
// derives the basis deterministically from these fields, so the result is
// interchangeable with the original.
func (cs CameraSpec) Camera(width, height int) (*camera.Camera, error) {
	return camera.New(v3(cs.Eye), v3(cs.Center), v3(cs.Up), cs.FovY, width, height)
}

func (cs CameraSpec) validate() error {
	for _, f := range []float32{
		cs.Eye[0], cs.Eye[1], cs.Eye[2],
		cs.Center[0], cs.Center[1], cs.Center[2],
		cs.Up[0], cs.Up[1], cs.Up[2],
	} {
		f64 := float64(f)
		if math.IsNaN(f64) || math.IsInf(f64, 0) {
			return fmt.Errorf("dist: non-finite camera field %v", f)
		}
	}
	if !(cs.FovY > 0 && cs.FovY < math.Pi) {
		return fmt.Errorf("dist: fovY %v outside (0, π)", cs.FovY)
	}
	return nil
}

// JobSpec addresses one frame: a built-in dataset (which also selects the
// transfer-function preset), the image size, the exact camera, and the
// quality knobs. It is what the render service resolves each normalized
// request into and renders, locally or on its workers, with the camera
// resolved to explicit floats so the wire form renders any view (orbit
// frames and the golden suite's fitted default alike).
type JobSpec struct {
	Dataset string `json:"dataset"`
	Edge    int    `json:"edge"`
	Width   int    `json:"width"`
	Height  int    `json:"height"`
	// GPUs sizes the job's virtual cluster: the brick grid is planned for
	// this many devices, exactly as a single-process render with
	// Options.GPUs would plan it. It is independent of how many GPUs any
	// individual worker node has.
	GPUs    int  `json:"gpus"`
	Shading bool `json:"shading,omitempty"`

	StepVoxels       float32 `json:"step_voxels,omitempty"`
	TerminationAlpha float32 `json:"termination_alpha,omitempty"`

	// BricksPerGPU scales the bricking policy exactly like
	// Options.BricksPerGPU (0 means the default 1).
	BricksPerGPU int `json:"bricks_per_gpu,omitempty"`

	// Partition, when non-nil, groups the grid's bricks into possibly
	// non-convex map units (map-task IDs become unit IDs and stripes
	// carry per-pixel fragment lists). nil is the convex default.
	Partition *PartitionSpec `json:"partition,omitempty"`

	Camera CameraSpec `json:"camera"`
}

// PartitionSpec names a registered partition scheme on the wire. Both
// sides build the same core.Partition from it, which is what lets the
// coordinator and its workers agree on unit tables without shipping
// code. A worker that does not know the scheme answers 400 — a loud,
// safe failure the coordinator surfaces without marking the node down.
type PartitionSpec struct {
	// Scheme is a name registered with core.RegisterPartition
	// (builtin: "interleave").
	Scheme string `json:"scheme"`
	// Parts is the requested unit count, in [2, 4096].
	Parts int `json:"parts"`
}

// Build constructs the named partition.
func (p *PartitionSpec) Build() (core.Partition, error) {
	if p == nil {
		return nil, nil
	}
	return core.BuildPartition(p.Scheme, p.Parts)
}

// Validate bounds the job against the node's limits: maxEdge caps the
// dataset cube edge, maxPixels the image area. The render service and its
// /map workers both run it, so a frame one accepts the other accepts.
func (j JobSpec) Validate(maxEdge, maxPixels int) error {
	known := false
	for _, n := range dataset.Names() {
		if n == j.Dataset {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("dist: unknown dataset %q (have %v)", j.Dataset, dataset.Names())
	}
	if j.Edge < 8 || j.Edge > maxEdge {
		return fmt.Errorf("dist: edge %d outside [8, %d]", j.Edge, maxEdge)
	}
	// Each dimension is bounded before the product so a crafted w*h can
	// overflow neither this check nor the renderer's allocation.
	maxPx := int64(maxPixels)
	if j.Width < 1 || j.Height < 1 ||
		int64(j.Width) > maxPx || int64(j.Height) > maxPx ||
		int64(j.Width)*int64(j.Height) > maxPx {
		return fmt.Errorf("dist: image %dx%d outside (0, %d] pixels", j.Width, j.Height, maxPixels)
	}
	if j.GPUs < 1 || j.GPUs > 1024 {
		return fmt.Errorf("dist: %d GPUs outside [1, 1024]", j.GPUs)
	}
	// Bounded in float32, the step's own precision: ?step=0.01 parses to
	// float32(0.01), just below 0.01 in float64. Written as a
	// positive-range check so NaN fails it too.
	if !(j.StepVoxels >= 0.01 && j.StepVoxels <= 16) {
		return fmt.Errorf("dist: step %v outside [0.01, 16]", j.StepVoxels)
	}
	if !(j.TerminationAlpha > 0 && j.TerminationAlpha <= 1) {
		return fmt.Errorf("dist: termination alpha %v outside (0, 1]", j.TerminationAlpha)
	}
	if j.BricksPerGPU < 0 || j.BricksPerGPU > 64 {
		return fmt.Errorf("dist: bricks-per-gpu %d outside [0, 64]", j.BricksPerGPU)
	}
	if _, err := j.Partition.Build(); err != nil {
		return err
	}
	return j.Camera.validate()
}

// Options builds the render options for this job. Both sides of the wire
// use it, which is what makes the coordinator's grid plan and the
// worker's agree.
func (j JobSpec) Options() (core.Options, error) {
	src, err := dataset.New(j.Dataset, dataset.PaperDims(j.Dataset, j.Edge))
	if err != nil {
		return core.Options{}, err
	}
	tf, err := transfer.Preset(dataset.TFName(j.Dataset))
	if err != nil {
		return core.Options{}, err
	}
	cam, err := j.Camera.Camera(j.Width, j.Height)
	if err != nil {
		return core.Options{}, err
	}
	part, err := j.Partition.Build()
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Source: src, TF: tf,
		Width: j.Width, Height: j.Height,
		Camera:           cam,
		GPUs:             j.GPUs,
		Shading:          j.Shading,
		StepVoxels:       j.StepVoxels,
		TerminationAlpha: j.TerminationAlpha,
		BricksPerGPU:     j.BricksPerGPU,
		Partition:        part,
	}, nil
}

// PlanSpec is the hardware description the job's grid is planned against:
// the calibrated AC cluster sized to the job's GPU count. Coordinator and
// workers both plan with it (workers via their own spec, which must carry
// the same GPU model — the grid-counts cross-check in the map request
// turns any divergence into a loud error instead of silently different
// bricks).
func (j JobSpec) PlanSpec() cluster.Spec { return cluster.AC(j.GPUs) }
