// Package gvmr is the public API of the multi-GPU MapReduce volume
// renderer: a Go reproduction of "Multi-GPU Volume Rendering using
// MapReduce" (Stuart, Chen, Ma, Owens — HPDC/MAPREDUCE 2010).
//
// Because Go has no CUDA ecosystem, the GPUs, PCIe links, InfiniBand
// network and disks are deterministic discrete-event models calibrated
// against the paper's measured costs, while every algorithm — ray
// casting, partitioning, counting sort, compositing — runs for real and
// produces real images. See DESIGN.md for the substitution argument and
// the spec/instance split; cmd/benchsuite regenerates the
// paper-vs-measured tables.
//
// Quickstart:
//
//	cl, _ := gvmr.NewCluster(8)
//	src, _ := gvmr.Dataset("skull", 256)
//	tf, _ := gvmr.Preset("skull")
//	res, _ := gvmr.Render(cl, gvmr.Options{
//		Source: src, TF: tf, Width: 512, Height: 512,
//	})
//	res.Image.WritePNG("skull.png")
//	fmt.Println(res.Runtime, res.FPS, res.VPSMillions)
package gvmr

import (
	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// Re-exported renderer types. Options configures a render; Result carries
// the image, timings and MapReduce statistics.
type (
	Options = core.Options
	Result  = core.Result
	Cluster = cluster.Cluster
	Source  = volume.Source
	Dims    = volume.Dims
	Image   = img.Image
	Camera  = camera.Camera
	Time    = sim.Time
)

// Partition groups bricks into map units (Options.Partition). nil is the
// paper's convex regime: one unit per brick, at most one fragment per
// (unit, pixel). A non-nil Partition may be non-convex — a ray can
// re-enter a unit, and each (unit, pixel) cell carries a depth-ordered
// fragment list — yet the rendered bits are identical to the convex
// default (DESIGN.md §12). Interleaved is the adversarial builtin: a 3D
// checkerboard by grid-index parity, the worst case for re-entry.
type (
	Partition   = core.Partition
	Interleaved = core.Interleaved
	// Brick and BrickGrid are the volume bricking a Partition assigns
	// over: Brick.Index is the brick's integer grid coordinate, and
	// BrickGrid.Counts the per-axis brick counts.
	Brick     = volume.Brick
	BrickGrid = volume.Grid
)

// RegisterPartition registers a named partition scheme so HTTP requests
// and distributed job specs can address it as "scheme:parts". Scheme
// names are part of the coordinator/worker wire contract; registering a
// taken name panics.
func RegisterPartition(scheme string, build func(parts int) (Partition, error)) {
	core.RegisterPartition(scheme, build)
}

// BuildPartition constructs a registered partition scheme with the given
// unit count (parts in [2, 4096]; the convex default is a nil Partition).
func BuildPartition(scheme string, parts int) (Partition, error) {
	return core.BuildPartition(scheme, parts)
}

// PartitionSchemes lists the registered partition scheme names, sorted.
func PartitionSchemes() []string { return core.PartitionSchemes() }

// Compositor and sampler choices (§6.1 pluggability).
const (
	DirectSend = core.DirectSend
	BinarySwap = core.BinarySwap
	RayCast    = core.RayCast
	Slicing    = core.Slicing
)

// Reduce/sort placement and chunk assignment (§3.1.2 design choices).
const (
	OnCPU         = mapreduce.OnCPU
	OnGPU         = mapreduce.OnGPU
	AssignStatic  = mapreduce.AssignStatic
	AssignDynamic = mapreduce.AssignDynamic
)

// NewCluster builds a simulated Accelerator-Cluster-style machine with the
// given total GPU count (4 GPUs per node, as on the paper's testbed).
func NewCluster(gpus int) (*Cluster, error) {
	return cluster.New(sim.NewEnv(), cluster.AC(gpus))
}

// Render renders one frame and returns the image plus full statistics.
func Render(cl *Cluster, opt Options) (*Result, error) {
	return core.Render(cl, opt)
}

// SequenceResult summarises a multi-frame animation render.
type SequenceResult = core.SequenceResult

// RenderSequence renders an orbiting animation of `frames` frames and
// reports the sustained frame rate (§4.2's interactivity figure of
// merit). Frames are independent simulations, so they render
// concurrently across host cores, each on a fresh instance of the
// cluster's spec; images, per-frame virtual times and aggregated
// statistics are bit-identical to serial execution (GOMAXPROCS=1, or a
// non-nil Options.Trace, which renders the frames back to back on cl so
// the trace is one timeline).
func RenderSequence(cl *Cluster, opt Options, frames int, orbitDegrees float64) (*SequenceResult, error) {
	return core.RenderSequence(cl, opt, frames, orbitDegrees)
}

// Frame is one delivered frame of RenderAsync: the full Result plus the
// frame's virtual duration, or Err if the frame failed.
type Frame = core.Frame

// OrbitCameras builds `frames` cameras orbiting the source's fitted
// default view by orbitDegrees in total — the camera path RenderSequence
// renders, exposed so RenderFrames/RenderAsync can consume or modify it.
// A partial orbit reaches its endpoint (the last camera sits at exactly
// orbitDegrees); a full-turn orbit spaces frames orbit/frames apart so
// the wrap frame doesn't duplicate frame zero; a single frame is the
// fitted base view (use OrbitCamera for one frame at a given angle).
func OrbitCameras(src Source, width, height, frames int, orbitDegrees float64) ([]*Camera, error) {
	return core.OrbitCameras(src, width, height, frames, orbitDegrees)
}

// OrbitCamera builds the single camera `degrees` along the fitted orbit —
// the view a render-service request addresses.
func OrbitCamera(src Source, width, height int, degrees float64) (*Camera, error) {
	return core.OrbitCamera(src, width, height, degrees)
}

// RenderFrames renders one frame per camera — an animation path, a
// parameter sweep's views, a stereo pair — concurrently across host
// cores, each frame on a fresh instance of the cluster's spec, and
// returns the results in camera order. Output is bit-identical to
// rendering the cameras one at a time; the cluster's virtual clock
// advances by the summed frame durations, as a serial session would.
func RenderFrames(cl *Cluster, opt Options, cams []*Camera) ([]*Result, error) {
	return core.RenderFrames(cl, opt, cams)
}

// RenderAsync renders one frame per camera concurrently and returns a
// stream that delivers the frames in camera order, each as soon as it
// and its predecessors are done — drive a UI or an encoder while later
// frames still render. A failed frame arrives in-stream with Err set;
// the channel closes after the last frame. The stream applies
// backpressure (rendering runs only a small window ahead of the
// consumer); a consumer that stops reading early MUST call the returned
// stop function to release the render workers (`defer stop()` is safe —
// it is a no-op after completion).
func RenderAsync(cl *Cluster, opt Options, cams []*Camera) (<-chan Frame, func(), error) {
	return core.RenderFramesAsync(cl, opt, cams)
}

// TraceLog collects per-operation activity spans; attach one to
// Options.Trace and export it with WriteChromeFile for a chrome://tracing
// timeline of the overlap between kernels, transfers and network sends.
type TraceLog = trace.Log

// NewTraceLog returns an empty span log.
func NewTraceLog() *TraceLog { return &trace.Log{} }

// Dataset returns one of the built-in synthetic datasets (skull,
// supernova, plume) at cube edge n (plume becomes (n/2)×(n/2)×2n, the
// paper's aspect).
func Dataset(name string, n int) (Source, error) {
	return dataset.New(name, dataset.PaperDims(name, n))
}

// DatasetNames lists the built-in datasets.
func DatasetNames() []string { return dataset.Names() }

// TransferFunc is a sampled transfer function (Options.TF) — what Preset
// and TransferFromPoints return.
type TransferFunc = transfer.Func

// Preset returns the transfer function paired with a built-in dataset:
// one shared, immutable instance per name — build an edited copy with
// TransferFromPoints instead of writing its Table.
func Preset(name string) (*transfer.Func, error) { return transfer.Preset(name) }

// TransferFromPoints builds a custom piecewise-linear transfer function
// from (scalar, RGBA) control points.
func TransferFromPoints(points []transfer.Point, size int) (*transfer.Func, error) {
	return transfer.FromPoints(points, size)
}

// RGBA builds a color (straight alpha) for transfer-function control
// points and backgrounds.
func RGBA(r, g, b, a float64) vec.V4 { return vec.New4(r, g, b, a) }

// Cube returns n×n×n dims.
func Cube(n int) Dims { return volume.Cube(n) }

// NewCamera builds an explicit perspective camera.
func NewCamera(eye, center, up vec.V3, fovY float64, width, height int) (*Camera, error) {
	return camera.New(eye, center, up, fovY, width, height)
}

// V3 builds a vector for camera placement.
func V3(x, y, z float64) vec.V3 { return vec.New3(x, y, z) }

// VolumeFileOptions configures WriteVolumeFileOpts: the target brick edge
// (default 32) and optional per-brick compression, a run-length code of
// the voxels' bit patterns that the pager decodes with a copy/fill loop.
type VolumeFileOptions = volume.V2Options

// VolumeFile is an open .gvmr volume file: a source that demand-pages its
// bricks and reports that activity in Stats. Close it when done.
type VolumeFile = *volume.PagedSource

// PagerStats is a snapshot of a paged volume file's streaming activity
// (brick reads, bytes, evict-driven reloads, min/max skip counts).
type PagerStats = volume.PagerStats

// WriteVolumeFile streams a source to a bricked .gvmr volume file with
// default options — the one on-disk format, which the out-of-core demand
// pager reads. Bricks holding a single value are recorded in the file's
// directory and take no payload. Use WriteVolumeFileOpts to pick the
// brick size or enable compression.
func WriteVolumeFile(path string, src Source) error {
	return volume.WriteFileV2(path, src, volume.V2Options{})
}

// WriteVolumeFileOpts streams a source to a bricked .gvmr volume file
// with explicit options.
func WriteVolumeFileOpts(path string, src Source, opts VolumeFileOptions) error {
	return volume.WriteFileV2(path, src, opts)
}

// OpenVolumeFile opens a bricked .gvmr volume file as a streaming source:
// it stages individual bricks through the process-wide staging cache on
// demand, so rendering never needs the whole volume in memory. Files of
// the retired flat format are refused. Close it when done.
func OpenVolumeFile(path string) (VolumeFile, error) {
	return volume.OpenFileV2(path)
}

// RegisterVolumeFile opens a .gvmr volume file and registers it as a
// dataset name usable everywhere a built-in dataset name is: HTTP render
// requests, distributed job specs, Dataset/DatasetNames. tfPreset names
// the transfer function to render it with ("" = neutral gray ramp).
func RegisterVolumeFile(name, path, tfPreset string) error {
	return dataset.RegisterVolumeFile(name, path, tfPreset)
}
