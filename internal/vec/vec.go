// Package vec provides the small linear-algebra substrate used by the
// renderer: 3- and 4-component float32 vectors, 4×4 matrices, rays and
// axis-aligned bounding boxes.
//
// Everything operates on float32 to mirror the GPU kernels the paper
// describes; helper constructors accept float64 literals for convenience.
package vec

import "math"

// V3 is a 3-component float32 vector.
type V3 struct {
	X, Y, Z float32
}

// V4 is a 4-component float32 vector (used for homogeneous coordinates and
// RGBA colors).
type V4 struct {
	X, Y, Z, W float32
}

// New3 builds a V3 from float64 components.
func New3(x, y, z float64) V3 { return V3{float32(x), float32(y), float32(z)} }

// New4 builds a V4 from float64 components.
func New4(x, y, z, w float64) V4 {
	return V4{float32(x), float32(y), float32(z), float32(w)}
}

// Add returns a + b.
func (a V3) Add(b V3) V3 { return V3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V3) Sub(b V3) V3 { return V3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a scaled by s.
func (a V3) Scale(s float32) V3 { return V3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product of a and b.
func (a V3) Dot(b V3) float32 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a × b.
func (a V3) Cross(b V3) V3 {
	return V3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean length of a.
func (a V3) Len() float32 { return float32(math.Sqrt(float64(a.Dot(a)))) }

// Norm returns a normalised to unit length. The zero vector is returned
// unchanged.
func (a V3) Norm() V3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Min returns the component-wise minimum of a and b.
func (a V3) Min(b V3) V3 {
	return V3{min(a.X, b.X), min(a.Y, b.Y), min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func (a V3) Max(b V3) V3 {
	return V3{max(a.X, b.X), max(a.Y, b.Y), max(a.Z, b.Z)}
}

// Lerp linearly interpolates between a and b by t in [0,1].
func (a V3) Lerp(b V3, t float32) V3 {
	return V3{
		a.X + (b.X-a.X)*t,
		a.Y + (b.Y-a.Y)*t,
		a.Z + (b.Z-a.Z)*t,
	}
}

// Add returns a + b.
func (a V4) Add(b V4) V4 { return V4{a.X + b.X, a.Y + b.Y, a.Z + b.Z, a.W + b.W} }

// Scale returns a scaled by s.
func (a V4) Scale(s float32) V4 { return V4{a.X * s, a.Y * s, a.Z * s, a.W * s} }

// Lerp linearly interpolates between a and b by t in [0,1].
func (a V4) Lerp(b V4, t float32) V4 {
	return V4{
		a.X + (b.X-a.X)*t,
		a.Y + (b.Y-a.Y)*t,
		a.Z + (b.Z-a.Z)*t,
		a.W + (b.W-a.W)*t,
	}
}
