// Package dataset provides the synthetic stand-ins for the paper's three
// evaluation datasets (Skull, Supernova, Plume) as deterministic analytic
// fields, at any resolution. The paper's original data is unavailable; the
// phantoms are designed to have comparable occupancy and opacity structure
// so that ray-casting workloads (sample counts, early termination, fragment
// counts) behave like the originals. See DESIGN.md §2.
package dataset

import "math"

// hash3 is a deterministic integer hash of a 3D lattice point, mixed with a
// seed; returns a value in [0,1).
func hash3(x, y, z, seed uint32) float64 {
	h := x*0x9E3779B1 ^ y*0x85EBCA77 ^ z*0xC2B2AE3D ^ seed*0x27D4EB2F
	h ^= h >> 15
	h *= 0x2C1B3C6D
	h ^= h >> 12
	h *= 0x297A2D39
	h ^= h >> 15
	return float64(h) / float64(1<<32)
}

// smooth is the C1 smoothstep fade used for noise interpolation.
func smooth(t float64) float64 { return t * t * (3 - 2*t) }

// ---- Row-batched fast-math kernels ----
//
// The functions below are the Fill path used by the RowFiller dataset
// evaluators. They compute the same quantities as the per-voxel
// references valueNoise, fbm and math.Exp (rows_test.go) but walk a
// whole x-row at once, so lattice corner hashes are recomputed
// only at cell crossings and per-row terms are hoisted. Evaluation order
// of the trilinear blend is rearranged (y/z collapse first, then x), and a
// polynomial exp replaces math.Exp, so results differ from the reference
// per-voxel fields by float rounding — bounded well below the documented
// fastFieldTolerance and verified by TestRowsMatchReferenceFields.

// valueNoiseRowAdd accumulates amp·valueNoise(ax·xs[i]+bx, y, z, seed)
// into out[i]. Along the row only the x lattice coordinate moves, so the
// four-corner y/z collapse is recomputed only when the cell changes; the
// per-voxel work is one fade and one lerp.
func valueNoiseRowAdd(out []float64, xs []float64, ax, bx, y, z float64, seed uint32, amp float64) {
	yf := math.Floor(y)
	zf := math.Floor(z)
	fy := smooth(y - yf)
	fz := smooth(z - zf)
	yi := uint32(int64(yf))
	zi := uint32(int64(zf))
	// corner collapses the four lattice values at integer x over y and z.
	corner := func(x uint32) float64 {
		c00 := hash3(x, yi, zi, seed)
		c10 := hash3(x, yi+1, zi, seed)
		c01 := hash3(x, yi, zi+1, seed)
		c11 := hash3(x, yi+1, zi+1, seed)
		c0 := c00 + (c10-c00)*fy
		c1 := c01 + (c11-c01)*fy
		return c0 + (c1-c0)*fz
	}
	var xi int64
	var a, b float64
	have := false
	for i, xv := range xs {
		x := ax*xv + bx
		xf := math.Floor(x)
		cell := int64(xf)
		if !have || cell != xi {
			if have && cell == xi+1 {
				// Advancing one cell to the right: reuse the shared corner.
				a = b
				b = corner(uint32(cell) + 1)
			} else {
				a = corner(uint32(cell))
				b = corner(uint32(cell) + 1)
			}
			xi = cell
			have = true
		}
		fx := smooth(x - xf)
		out[i] += amp * (a + (b-a)*fx)
	}
}

// fbmRow writes fbm((ax·xs[i]+bx)·2.03ᵒ, y·2.03ᵒ, z·2.03ᵒ, …) summed over
// octaves o into out[i], matching fbm() up to float rounding.
func fbmRow(out []float64, xs []float64, ax, bx, y, z float64, octaves int, seed uint32) {
	for i := range out {
		out[i] = 0
	}
	amp := 0.5
	norm := 0.0
	scale := 1.0
	for o := 0; o < octaves; o++ {
		valueNoiseRowAdd(out, xs, ax*scale, bx*scale, y*scale, z*scale, seed+uint32(o)*101, amp)
		norm += amp
		scale *= 2.03
		amp *= 0.5
	}
	inv := 1 / norm
	for i := range out {
		out[i] *= inv
	}
}

// expNeg returns exp(-u) for u ≥ 0 with relative error < 1e-8: range
// reduction to exp(-u) = 2⁻ⁿ·exp(-r), |r| ≤ ln2/2, then a degree-7
// Taylor polynomial. Roughly 3× faster than math.Exp, and the fields only
// need float32 precision.
func expNeg(u float64) float64 {
	if u > 708 {
		return 0
	}
	if u < 0 {
		return math.Exp(-u)
	}
	const (
		invLn2 = 1.44269504088896338700
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
	)
	n := int64(u*invLn2 + 0.5)
	r := (u - float64(n)*ln2Hi) - float64(n)*ln2Lo
	t := -r
	p := 1 + t*(1+t*(1./2+t*(1./6+t*(1./24+t*(1./120+t*(1./720+t*(1./5040)))))))
	return p * math.Float64frombits(uint64(1023-n)<<52)
}
