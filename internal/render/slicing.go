package render

import (
	"math"

	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// CastPixelSlicing adapts CastRaySlicing to the classic single-fragment
// contract, mirroring CastPixel.
func CastPixelSlicing(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int) (composite.Fragment, SampleStats) {
	return SampleOne(CastRaySlicing, cam, sp, bd, prm, px, py)
}

// CastRaySlicing is the object-aligned slicing sampler: the §6.1
// pluggability alternative ("if the user wished to use splatting or
// slicing instead of ray casting, the map phase is all that would need to
// be changed"). Instead of a fixed arc-length step along the ray, samples
// are taken where the ray crosses the volume's voxel slab planes along
// the axis most aligned with the view direction — exactly what compositing
// object-aligned textured slices computes.
func CastRaySlicing(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int, emit func(composite.Fragment)) SampleStats {
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
	// Dominant axis of the view direction chooses the slice stack.
	dir := [3]float32{ray.Dir.X, ray.Dir.Y, ray.Dir.Z}
	axis := 0
	for a := 1; a < 3; a++ {
		if abs32(dir[a]) > abs32(dir[axis]) {
			axis = a
		}
	}
	if dir[axis] == 0 {
		return st
	}
	org := [3]float32{ray.Origin.X, ray.Origin.Y, ray.Origin.Z}

	// Slab planes sit at voxel centers along the axis, spaced one slice
	// (StepVoxels voxels) apart in world units.
	sliceStep := sp.VoxelSize() * prm.StepVoxels
	// World coordinate of plane k along the axis: planes fill the volume
	// bounds; plane positions w_k = axisMin + (k+0.5)·sliceStep relative
	// to the whole volume so neighbouring bricks share the same stack.
	bounds := sp.Bounds()
	axisMin := [3]float32{bounds.Min.X, bounds.Min.Y, bounds.Min.Z}[axis]

	// Ray parameter of plane k: t = (w_k - org)/dir.
	tOfPlane := func(k int64) float32 {
		w := axisMin + (float32(k)+0.5)*sliceStep
		return (w - org[axis]) / dir[axis]
	}
	// Find the first plane with t >= t0 (direction-dependent ordering).
	invDt := dir[axis] / sliceStep // planes per unit t (signed)
	kf := (t0*dir[axis] + org[axis] - axisMin) / sliceStep
	k := int64(math.Ceil(float64(kf) - 0.5))
	dk := int64(1)
	if invDt < 0 {
		k = int64(math.Floor(float64(kf) - 0.5))
		dk = -1
	}

	if !prm.fresh() {
		prm = prm.Prepare()
	}
	tf := prm.lookupTF()
	smp := bd.Sampler()
	acc := vec.V4{}
	entry := float32(-1) // no contributing sample yet; t ≥ 0 on this path
	maxPlanes := int64(4 * (sp.Dims.X + sp.Dims.Y + sp.Dims.Z))
	for iter := int64(0); ; iter++ {
		if iter > maxPlanes {
			break // safety net against degenerate geometry
		}
		t := tOfPlane(k)
		if t < t0 {
			k += dk
			continue
		}
		if t >= t1 {
			break
		}
		pos := sp.WorldToVoxel(ray.At(t))
		s := smp.Sample(pos.X, pos.Y, pos.Z)
		st.Samples++
		c := tf.Lookup(s)
		if c.W > 0 {
			if entry < 0 {
				entry = t
			}
			a := c.W
			acc = composite.Under(acc, vec.V4{X: c.X * a, Y: c.Y * a, Z: c.Z * a, W: a})
			if acc.W >= prm.TerminationAlpha {
				break
			}
		}
		k += dk
	}
	if acc.W == 0 {
		return st
	}
	if entry < 0 {
		entry = t0
	}
	emit(composite.Fragment{Key: key, R: acc.X, G: acc.Y, B: acc.Z, A: acc.W, Depth: entry})
	return st
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
