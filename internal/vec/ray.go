package vec

// Ray is a parametric ray Origin + t*Dir.
type Ray struct {
	Origin V3
	Dir    V3
}

// At returns the point at parameter t along the ray.
func (r Ray) At(t float32) V3 { return r.Origin.Add(r.Dir.Scale(t)) }

// AABB is an axis-aligned bounding box described by its two corners.
type AABB struct {
	Min, Max V3
}

// Center returns the box center.
func (b AABB) Center() V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extent per axis.
func (b AABB) Size() V3 { return b.Max.Sub(b.Min) }

// Contains reports whether p lies inside the box (inclusive).
func (b AABB) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Corners returns the eight corner points of the box.
func (b AABB) Corners() [8]V3 {
	return [8]V3{
		{b.Min.X, b.Min.Y, b.Min.Z},
		{b.Max.X, b.Min.Y, b.Min.Z},
		{b.Min.X, b.Max.Y, b.Min.Z},
		{b.Max.X, b.Max.Y, b.Min.Z},
		{b.Min.X, b.Min.Y, b.Max.Z},
		{b.Max.X, b.Min.Y, b.Max.Z},
		{b.Min.X, b.Max.Y, b.Max.Z},
		{b.Max.X, b.Max.Y, b.Max.Z},
	}
}

// Intersect computes the parametric interval [tNear, tFar] over which the
// ray overlaps the box, using the slab method. It reports ok=false when the
// ray misses the box entirely. tNear may be negative when the origin is
// inside the box; callers that march forward should clamp it to zero.
func (b AABB) Intersect(r Ray) (tNear, tFar float32, ok bool) {
	tNear = -3.4e38
	tFar = 3.4e38
	mins := [3]float32{b.Min.X, b.Min.Y, b.Min.Z}
	maxs := [3]float32{b.Max.X, b.Max.Y, b.Max.Z}
	org := [3]float32{r.Origin.X, r.Origin.Y, r.Origin.Z}
	dir := [3]float32{r.Dir.X, r.Dir.Y, r.Dir.Z}
	for a := 0; a < 3; a++ {
		if dir[a] == 0 {
			if org[a] < mins[a] || org[a] > maxs[a] {
				return 0, 0, false
			}
			continue
		}
		inv := 1 / dir[a]
		t0 := (mins[a] - org[a]) * inv
		t1 := (maxs[a] - org[a]) * inv
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tNear {
			tNear = t0
		}
		if t1 < tFar {
			tFar = t1
		}
		if tNear > tFar {
			return 0, 0, false
		}
	}
	return tNear, tFar, true
}
