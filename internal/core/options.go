// Package core is the paper's volume renderer built on the MapReduce
// library: bricked ray casting in the Map phase, per-pixel round-robin
// partitioning, counting sort, and direct-send compositing in the Reduce
// phase (§3.2), with binary-swap compositing and a slicing sampler as the
// pluggable alternatives §6.1 describes. A frame's units are mapped on
// the host and their fragments folded once; the MapReduce engine runs the
// units' recorded charges for the frame's virtual time (DESIGN.md §3).
package core

import (
	"fmt"

	"gvmr/internal/camera"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/trace"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// Compositor selects the fragment-combination topology.
type Compositor int

// Compositors.
const (
	DirectSend Compositor = iota // paper's choice (§6: overlap + MapReduce fit)
	BinarySwap                   // §6.1 alternative
)

// String renders the compositor name.
func (c Compositor) String() string {
	if c == BinarySwap {
		return "binary-swap"
	}
	return "direct-send"
}

// Sampler selects the volume-sampling technique of the map phase.
type Sampler int

// Samplers.
const (
	RayCast Sampler = iota
	Slicing
)

// String renders the sampler name.
func (s Sampler) String() string {
	if s == Slicing {
		return "slicing"
	}
	return "raycast"
}

// Options configures a render.
type Options struct {
	// Source provides the volume data (in-core array, analytic dataset,
	// or file).
	Source volume.Source
	// TF is the transfer function.
	TF *transfer.Func
	// Width and Height are the image size (the paper evaluates at 512²).
	Width, Height int
	// GPUs is the number of devices used; zero means all in the cluster.
	GPUs int
	// Camera overrides the default fit view when non-nil.
	Camera *camera.Camera
	// Background is the color composited behind the volume.
	Background vec.V4

	// StepVoxels and TerminationAlpha parameterise the kernel.
	StepVoxels       float32
	TerminationAlpha float32
	// Shading enables gradient (central-difference) diffuse shading —
	// the "shading calculations" of the §2 ray-casting description —
	// at six extra texture fetches per contributing sample.
	Shading bool

	// BricksPerGPU scales the bricking policy: brick count =
	// max(GPUs·BricksPerGPU, VRAM floor). Default 1, the paper's
	// "number of bricks close to the number of GPUs" regime.
	BricksPerGPU int

	// FromDisk streams bricks through the simulated disk (out-of-core).
	FromDisk bool

	// NoEmptySkip disables macrocell empty-space skipping in the ray
	// caster: every lattice sample is fetched and classified like the
	// paper's original §3.2 kernel. Images are bit-identical either way
	// (skipping is conservative — see DESIGN.md §8); the flag exists for
	// A/B benchmarks of the acceleration structure.
	NoEmptySkip bool

	// InSitu models the §7 in-situ pipeline: bricks are already resident
	// on the cluster's nodes (produced by a co-located simulation,
	// distributed round-robin across nodes). Static assignment keeps each
	// brick on a worker of its home node; any brick mapped off it (under
	// AssignDynamic) costs an interconnect hand-off instead of a disk read.
	InSitu bool

	// Trace, when non-nil, collects per-operation activity spans (see
	// internal/trace) for timeline export. It alone selects the
	// back-to-back path of RenderSequence and RenderFrames: frames render
	// one after another on the caller's cluster, so the log is one
	// timeline. Without it frames render concurrently across host cores,
	// each on a fresh instance of the cluster's spec; images, per-frame
	// virtual times and statistics are bit-identical either way.
	Trace *trace.Log

	Compositor Compositor
	Sampler    Sampler

	// Partition groups bricks into map units. nil is the paper's convex
	// regime (one unit per brick). A non-nil Partition — e.g.
	// Interleaved, or a custom scheme registered via RegisterPartition —
	// may be non-convex: rays re-enter a unit once per connected span
	// and each (unit, pixel) cell carries a fragment list instead of a
	// single fragment. Convex digests are byte-identical with or without
	// this machinery; see DESIGN.md §12.
	Partition Partition

	// Partitioner overrides the default per-pixel round-robin (used by
	// the volume/image partitioning ablation).
	Partitioner mapreduce.Partitioner

	ReduceOn mapreduce.Placement
	SortOn   mapreduce.Placement
	Assign   mapreduce.AssignMode
}

func (o *Options) fillDefaults() error {
	if o.Source == nil {
		return fmt.Errorf("core: nil volume source")
	}
	if o.TF == nil {
		return fmt.Errorf("core: nil transfer function")
	}
	if o.Width <= 0 || o.Height <= 0 {
		return fmt.Errorf("core: invalid image size %dx%d", o.Width, o.Height)
	}
	if o.StepVoxels == 0 {
		o.StepVoxels = 1
	}
	if o.TerminationAlpha == 0 {
		o.TerminationAlpha = 0.98
	}
	if o.BricksPerGPU == 0 {
		o.BricksPerGPU = 1
	}
	if o.Background.W == 0 {
		o.Background = vec.V4{X: 0, Y: 0, Z: 0, W: 1}
	}
	return nil
}

// renderParams builds the kernel parameters.
func (o *Options) renderParams() render.Params {
	return render.Params{
		TF:               o.TF,
		StepVoxels:       o.StepVoxels,
		TerminationAlpha: o.TerminationAlpha,
		Shading:          o.Shading,
		// The slicing sampler ignores the skip structure; disabling it
		// spares slicing kernels the macrocell build they'd never read.
		NoEmptySkip: o.NoEmptySkip || o.Sampler == Slicing,
	}
}
