// Package render implements the ray-casting map kernel: the CUDA-kernel
// equivalent of §3.2 of the paper. Rays are generated per pixel over a
// brick's screen footprint in 16×16 thread blocks, intersected against the
// brick's bounding box (non-intersecting rays emit nothing), marched at
// fixed increments with trilinear 3D-texture sampling and a 1D transfer
// function, accumulated front to back with early ray termination, and
// emitted as a homogeneous fragment list per thread — at most one fragment
// per convex brick, one per traversal span under non-convex partitions.
package render

import (
	"fmt"
	"math"

	"gvmr/internal/cache"
	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// BlockDim is the paper's 16×16 thread-block size.
const BlockDim = 16

// Params configures the ray caster.
type Params struct {
	// TF is the 1D transfer function (required).
	TF *transfer.Func
	// StepVoxels is the marching step in voxel units (the paper uses
	// fixed increments; 1.0 is the classic one-sample-per-voxel rate).
	StepVoxels float32
	// TerminationAlpha is the early-ray-termination threshold.
	TerminationAlpha float32
	// Shading enables Levoy-style gradient (central-difference) diffuse
	// shading of contributing samples under lightDir; it costs six extra
	// texture fetches per shaded sample, which the cost model charges.
	Shading bool
	// NoEmptySkip turns the macrocell grid off — both the leap over empty
	// cells and the answering of homogeneous ones: the ray fetches every
	// lattice sample like the original §3.2 kernel. Either is
	// bit-identical (a leapt sample has transfer-function alpha exactly
	// 0, an answered one gets the value every one of its fetches would
	// return), so this exists for A/B benchmarking and as an escape
	// hatch, not for correctness.
	NoEmptySkip bool

	// Prepared by Prepare(): per-Params constants hoisted out of the
	// per-ray and per-sample paths. Zero-value Params still work — the
	// samplers call Prepare lazily — but kernels prepare once up front.
	// The prep* fields snapshot the inputs the constants were derived
	// from, so mutating a prepared Params re-derives instead of silently
	// using stale constants.
	prepared bool
	prepStep float32
	prepTF   *transfer.Func
	tfStep   *transfer.Func // opacity-corrected TF when StepVoxels != 1
	// skip is the per-brick occupancy structure resolved by PrepareBrick;
	// CastPixel falls back to the process-wide memo when it is absent or
	// belongs to a different brick's macrocell grid.
	skip *skipGrid
}

// lightDir is the world-space directional light Shading uses: one
// oblique light, normalised.
var lightDir = vec.New3(0.5, 0.8, 0.6).Norm()

// stepTables memoises opacity-corrected transfer tables per
// (*transfer.Func, step), so samplers called per pixel with unprepared
// Params don't rebuild the table per ray. Like the rest of the renderer
// it assumes a transfer function's Table is not mutated after first use
// (transfer.Func documents this). An entry is charged its table and the
// one it pins, 8 KiB at the presets' resolution.
var stepTables = cache.New[tfStepKey, *transfer.Func](1 << 20)

type tfStepKey struct {
	tf   *transfer.Func
	step float32
}

func correctedTF(tf *transfer.Func, step float32) *transfer.Func {
	bytes := 2 * 16 * int64(len(tf.Table)) // a vec.V4 is four float32s
	c, _, _ := stepTables.Load(tfStepKey{tf, step}, bytes, func(bool) (*transfer.Func, int64, error) {
		return tf.OpacityCorrected(step), bytes, nil
	})
	return c
}

// Prepare returns p with its derived per-Params constants computed: for
// non-unit steps, the transfer function with opacity correction folded
// into its table (replacing a math.Pow per sample with nothing). Kernels call it once per brick;
// calling CastPixel directly with unprepared Params still works and
// prepares on the fly (the corrected table is memoised process-wide).
func (p Params) Prepare() Params {
	if p.fresh() {
		return p
	}
	p.tfStep = nil
	p.skip = nil // per-brick; re-resolved by PrepareBrick or per ray
	if p.TF != nil && p.StepVoxels > 0 && p.StepVoxels != 1 {
		p.tfStep = correctedTF(p.TF, p.StepVoxels)
	}
	p.prepared = true
	p.prepTF, p.prepStep = p.TF, p.StepVoxels
	return p
}

// fresh reports whether p's prepared constants still match the inputs
// they were derived from. The samplers test it per ray, so a kernel-
// prepared Params is neither re-derived nor copied through Prepare.
func (p *Params) fresh() bool {
	return p.prepared && p.prepTF == p.TF && p.prepStep == p.StepVoxels
}

// PrepareBrick returns p prepared (see Prepare) with the empty-space
// structure for bd's macrocell grid resolved, hoisting the occupancy-memo
// lookup out of the per-ray path. Kernels call it once per brick;
// CastPixel called with plain prepared Params resolves the structure
// per ray through the process-wide memo instead.
func (p Params) PrepareBrick(bd *volume.BrickData) Params {
	p = p.Prepare()
	p.skip = resolveSkip(&p, bd)
	return p
}

// resolveSkip returns the skip grid for bd under p, or nil when skipping
// is disabled, impossible (no macrocells, nil TF), or useless (no cell is
// skippable).
func resolveSkip(p *Params, bd *volume.BrickData) *skipGrid {
	if p.NoEmptySkip || p.TF == nil {
		return nil
	}
	mc := bd.Cells()
	if mc == nil {
		return nil
	}
	if p.skip != nil && p.skip.mc == mc {
		return p.skip
	}
	return occupancyFor(mc, p.TF)
}

// lookupTF returns the transfer function the sampler should use: the
// opacity-corrected table for non-unit steps, else the original.
func (p *Params) lookupTF() *transfer.Func {
	if p.tfStep != nil {
		return p.tfStep
	}
	return p.TF
}

// shadeAmbient and shadeDiffuse weight the two lighting terms.
const (
	shadeAmbient = 0.35
	shadeDiffuse = 0.65
)

// DefaultParams returns the canonical settings used by the evaluation.
func DefaultParams(tf *transfer.Func) Params {
	return Params{TF: tf, StepVoxels: 1.0, TerminationAlpha: 0.98}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.TF == nil {
		return fmt.Errorf("render: nil transfer function")
	}
	if p.StepVoxels <= 0 {
		return fmt.Errorf("render: non-positive step %v", p.StepVoxels)
	}
	if p.TerminationAlpha <= 0 || p.TerminationAlpha > 1 {
		return fmt.Errorf("render: termination alpha %v outside (0,1]", p.TerminationAlpha)
	}
	return nil
}

// SampleStats counts one pixel's sampling work: texture fetches issued;
// fetches the dense march issues that the macrocell grid made unnecessary
// — the sample invisible (an empty cell) or homogeneous (a flat one), so
// the dense march issues Samples + Skipped; and macrocell visits —
// classifications, not cells crossed (charged at Spec.CellRate).
type SampleStats struct {
	Samples int64
	Skipped int64
	Cells   int64
}

// CastPixel adapts CastRay to the classic single-fragment contract:
// the brick's fragment for pixel (px,py), or a placeholder when the ray
// contributed nothing. Convex bricks yield at most one fragment per
// ray, so nothing is lost in the adaptation.
func CastPixel(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int) (composite.Fragment, SampleStats) {
	return SampleOne(CastRay, cam, sp, bd, prm, px, py)
}

// CastRay marches the ray for pixel (px,py) through the brick core,
// emits the accumulated fragment (nothing when the ray misses or picks
// up no opacity), and returns the sampling work. The sample positions
// lie on a per-ray global lattice t = (k+0.5)·step, so a ray split
// across bricks takes exactly the same samples a monolithic traversal
// would — the brick-count invariance the tests verify.
//
// When the brick carries a macrocell grid (and Params.NoEmptySkip is
// unset), the inner loop is a two-level DDA: macrocells along the ray
// are tested against the transfer function's occupancy field, and runs
// of lattice indices inside a box of provably-invisible cells advance k
// without fetching. Skipped samples all have TF alpha exactly 0, and the
// lattice itself never moves, so the accumulated fragment — and with it
// the image — is bit-identical to the dense march (DESIGN.md §8). An
// occupied cell whose stencil reach holds a single value (Macrocells.Flat)
// is neither leapt nor marched: its samples are composited from one
// lookup of that value, the one all seven fetches would have returned.
//
// Each sample builds its three axis taps once; the shading stencil's six
// fetches reuse two of them each (DESIGN.md §8, "Shared-axis stencil").
func CastRay(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int, emit func(composite.Fragment)) SampleStats {
	var st SampleStats
	key := int32(py*cam.Width + px)
	ray := cam.Ray(px, py)
	t0, t1, ok := bd.Brick.Bounds.Intersect(ray)
	if !ok || t1 <= 0 {
		return st
	}
	if t0 < 0 {
		t0 = 0
	}
	step := sp.VoxelSize() * prm.StepVoxels
	// First lattice index k with (k+0.5)·step >= t0.
	k := int64(math.Ceil(float64(t0)/float64(step) - 0.5))
	if k < 0 {
		k = 0
	}
	// Per-Params constants (normalised light, opacity-corrected transfer
	// table for non-unit steps) are hoisted out of the per-ray path;
	// kernels prepare once per brick (PrepareBrick also resolves the
	// empty-space structure so no memo lookup happens per ray).
	if !prm.fresh() {
		prm = prm.Prepare()
	}
	tf := prm.lookupTF()
	smp := bd.Sampler()
	skip := resolveSkip(&prm, bd)
	if skip != nil && !skip.any {
		skip = nil
	}
	// Space.WorldToVoxel's two constants, taken once per ray: the voxel
	// position of a sample is ray.At(t).Scale(inv).Add(ctr), operation for
	// operation what WorldToVoxel computes.
	inv := 1 / sp.VoxelSize()
	ctr := sp.WorldToVoxel(vec.V3{})
	var exits cellExits
	kEnd := int64(0)
	if skip != nil {
		exits = newCellExits(skip.mc, ray, inv, ctr)
		// kEnd is the first lattice index past the brick under the exact
		// per-sample float32 comparison the dense loop uses; skips clamp
		// to it so every skipped index is one the dense path would take.
		kEnd = int64(math.Ceil(float64(t1)/float64(step) - 0.5))
		if kEnd < k {
			kEnd = k
		}
		for kEnd > k && (float32(kEnd-1)+0.5)*step >= t1 {
			kEnd--
		}
		for (float32(kEnd)+0.5)*step < t1 {
			kEnd++
		}
	}
	lastCell := -1
	// occupiedUntil gates reclassification: while t is below the current
	// occupied cell's exit, samples march densely on one comparison
	// instead of a full cell lookup. Purely an optimisation — dense
	// marching is always correct, so a misjudged exit (float slack) only
	// means classifying a sample early or late, never skipping it.
	occupiedUntil := float32(-1)

	acc := vec.V4{}
	// entry < 0 marks "no contributing sample yet"; t is never negative.
	entry := float32(-1)
march:
	for {
		t := (float32(k) + 0.5) * step
		if t >= t1 {
			break
		}
		pos := ray.At(t).Scale(inv).Add(ctr)
		if skip != nil && t >= occupiedUntil {
			mc := skip.mc
			cx := clampCell((int(pos.X)-mc.Org[0])>>volume.MacrocellShift, mc.Cells.X)
			cy := clampCell((int(pos.Y)-mc.Org[1])>>volume.MacrocellShift, mc.Cells.Y)
			cz := clampCell((int(pos.Z)-mc.Org[2])>>volume.MacrocellShift, mc.Cells.Z)
			ci := mc.CellIndex(cx, cy, cz)
			if ci != lastCell {
				lastCell = ci
				st.Cells++
			}
			r := int(skip.leap[ci])
			texit := exits.exitT(cx, cy, cz, max(r-1, 0))
			if r > 0 {
				// Leap to the first lattice index at or beyond the exit of
				// the box of empty cells around this one, clamped to kEnd.
				// Every index in [k, k2) is one the dense path would take
				// with TF alpha exactly 0: skipping it changes no bit.
				k2 := k + 1
				if e := float64(texit)/float64(step) - 0.5; e > float64(k2) {
					if e >= float64(kEnd) {
						k2 = kEnd
					} else {
						k2 = int64(math.Ceil(e))
					}
				}
				st.Skipped += k2 - k
				k = k2
				continue
			}
			if mc.IsFlat(ci) {
				// Homogeneous cell: until the ray leaves it — under the
				// march's own float32 exit test, so the next classification
				// falls on the index it always did — every fetch of every
				// sample returns mc.Min[ci], the gradient is exactly 0 and
				// shadeAt exactly 1. One lookup answers the run; only the
				// compositing, whose rounding is the image, stays per sample.
				c := tf.Lookup(mc.Min[ci])
				fetches := int64(1)
				if c.W > 0 && prm.Shading {
					fetches = 7
				}
				src := vec.V4{X: c.X * c.W, Y: c.Y * c.W, Z: c.Z * c.W, W: c.W}
				for {
					st.Skipped += fetches
					if c.W > 0 {
						if entry < 0 {
							entry = t
						}
						acc = composite.Under(acc, src)
						if acc.W >= prm.TerminationAlpha {
							break march
						}
					}
					k++
					if t = (float32(k) + 0.5) * step; t >= t1 || t >= texit {
						continue march
					}
				}
			}
			occupiedUntil = texit
		}
		tx, ty, tz := smp.TapX(pos.X), smp.TapY(pos.Y), smp.TapZ(pos.Z)
		s := smp.Fetch(tx, ty, tz)
		st.Samples++
		c := tf.Lookup(s)
		if c.W > 0 {
			if entry < 0 {
				entry = t
			}
			if prm.Shading {
				shade := shadeAt(smp, pos, tx, ty, tz, lightDir)
				st.Samples += 6
				c.X *= shade
				c.Y *= shade
				c.Z *= shade
			}
			a := c.W
			// Premultiply and accumulate front to back.
			acc = composite.Under(acc, vec.V4{X: c.X * a, Y: c.Y * a, Z: c.Z * a, W: a})
			if acc.W >= prm.TerminationAlpha {
				break
			}
		}
		k++
	}
	if acc.W == 0 {
		return st
	}
	// Depth is the brick entry point along the ray: fragments of one ray
	// across disjoint bricks sort correctly by it.
	if entry < 0 {
		entry = t0
	}
	emit(composite.Fragment{
		Key: key, R: acc.X, G: acc.Y, B: acc.Z, A: acc.W, Depth: entry,
	})
	return st
}

// clampCell clamps a cell coordinate into [0, n-1]; sample positions sit
// a float rounding error outside the grid at region boundaries.
func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// cellExits holds one ray's invariants of the macrocell exit test. The
// ray is the idealised voxel-space one: sample positions are always
// computed through the exact per-sample expression in CastRay; this
// affine form only bounds how far a run of samples stays inside one
// cell, and its float deviation from the exact positions (well under
// half a voxel) is absorbed by the macrocells' one-voxel-per-face
// dilation, which covers the trilinear footprint of any position up to
// half a voxel outside the cell.
type cellExits struct {
	org, dir [3]float32
	// face is, per axis, the voxel coordinate of cell 0's exit plane: the
	// grid origin, plus one cell edge where the ray ascends.
	face [3]int
}

func newCellExits(mc *volume.Macrocells, ray vec.Ray, inv float32, ctr vec.V3) cellExits {
	e := cellExits{
		org:  [3]float32{ray.Origin.X*inv + ctr.X, ray.Origin.Y*inv + ctr.Y, ray.Origin.Z*inv + ctr.Z},
		dir:  [3]float32{ray.Dir.X * inv, ray.Dir.Y * inv, ray.Dir.Z * inv},
		face: mc.Org,
	}
	for a, d := range e.dir {
		if d > 0 {
			e.face[a] += volume.MacrocellEdge
		}
	}
	return e
}

// exitT returns the ray parameter at which the ray leaves the box of
// cells within Chebyshev distance r of macrocell (cx,cy,cz) — r = 0 is
// the cell itself: the nearest forward crossing of the box's exit planes.
// Axes the ray is parallel to never exit.
func (e *cellExits) exitT(cx, cy, cz, r int) float32 {
	texit := float32(math.Inf(1))
	for a, c := range [3]int{cx, cy, cz} {
		d := e.dir[a]
		if d == 0 {
			continue
		}
		if d > 0 {
			c += r
		} else {
			c -= r
		}
		if tb := (float32(e.face[a]+c<<volume.MacrocellShift) - e.org[a]) / d; tb < texit {
			texit = tb
		}
	}
	return texit
}

// shadeAt evaluates Levoy-style diffuse shading at a voxel-space position:
// a central-difference gradient (six texture fetches sharing the
// position's own taps tx, ty, tz) gives the surface normal; the return
// value scales the sample color.
func shadeAt(smp *volume.Sampler, pos vec.V3, tx, ty, tz volume.Tap, light vec.V3) float32 {
	gx, gy, gz := smp.Gradient(pos.X, pos.Y, pos.Z, tx, ty, tz)
	g := vec.V3{X: gx, Y: gy, Z: gz}
	l := g.Len()
	if l < 1e-6 {
		return 1 // homogeneous region: no surface to shade
	}
	// The normal is -g normalised. Negation leaves every square, so the
	// length, unchanged: l serves for both the test above and the scale.
	n := g.Scale(-1).Scale(1 / l)
	diffuse := n.Dot(light)
	if diffuse < 0 {
		diffuse = -diffuse // two-sided shading for semi-transparent media
	}
	return shadeAmbient + shadeDiffuse*diffuse
}
