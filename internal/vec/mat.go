package vec

import "math"

// M4 is a 4×4 matrix in row-major order: M[row][col].
type M4 [4][4]float32

// Identity returns the identity matrix.
func Identity() M4 {
	var m M4
	m[0][0], m[1][1], m[2][2], m[3][3] = 1, 1, 1, 1
	return m
}

// MulV returns the matrix-vector product a * v.
func (a M4) MulV(v V4) V4 {
	return V4{
		a[0][0]*v.X + a[0][1]*v.Y + a[0][2]*v.Z + a[0][3]*v.W,
		a[1][0]*v.X + a[1][1]*v.Y + a[1][2]*v.Z + a[1][3]*v.W,
		a[2][0]*v.X + a[2][1]*v.Y + a[2][2]*v.Z + a[2][3]*v.W,
		a[3][0]*v.X + a[3][1]*v.Y + a[3][2]*v.Z + a[3][3]*v.W,
	}
}

// MulPoint transforms the point p (w=1) by a and performs the perspective
// divide.
func (a M4) MulPoint(p V3) V3 {
	v := a.MulV(V4{p.X, p.Y, p.Z, 1})
	if v.W != 0 && v.W != 1 {
		inv := 1 / v.W
		return V3{v.X * inv, v.Y * inv, v.Z * inv}
	}
	return V3{v.X, v.Y, v.Z}
}

// RotateY returns a rotation matrix about the Y axis by angle radians.
func RotateY(angle float64) M4 {
	c := float32(math.Cos(angle))
	s := float32(math.Sin(angle))
	m := Identity()
	m[0][0], m[0][2] = c, s
	m[2][0], m[2][2] = -s, c
	return m
}
