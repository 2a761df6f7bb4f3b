// Package transfer implements 1D transfer functions: lookup tables mapping
// a scalar sample in [0,1] to an RGBA color (straight alpha), mirroring the
// texture-based 1D transfer function the paper's kernel uses.
package transfer

import (
	"fmt"
	"math"
	"sort"

	"gvmr/internal/vec"
)

// Func is a sampled transfer function over the domain [0,1]. Lookup
// interpolates linearly between table entries, like a linearly-filtered 1D
// texture. Treat Table as immutable once the function is in use: the
// renderer caches per-Func derived tables (opacity correction), so edits
// should build a new Func instead of mutating the slice in place.
type Func struct {
	Table []vec.V4

	// rmax memoises the alpha range-max table behind MaxAlphaInRange
	// (occupancy.go); built lazily from the immutable Table.
	rmax atomicRangeMax
}

// Point is a control point for building a piecewise-linear transfer
// function: scalar value S maps to color C.
type Point struct {
	S float64
	C vec.V4
}

// DefaultTableSize is the lookup-texture resolution used by the presets.
const DefaultTableSize = 256

// FromPoints builds a transfer function by piecewise-linear interpolation
// of control points into a table of the given size. Points are sorted by S;
// the domain outside the first/last point is clamped to their colors.
func FromPoints(points []Point, size int) (*Func, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("transfer: need at least 2 control points, got %d", len(points))
	}
	if size < 2 {
		return nil, fmt.Errorf("transfer: table size %d < 2", size)
	}
	pts := make([]Point, len(points))
	copy(pts, points)
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].S < pts[j].S })
	table := make([]vec.V4, size)
	for i := range table {
		s := float64(i) / float64(size-1)
		table[i] = evalPoints(pts, s)
	}
	return &Func{Table: table}, nil
}

func evalPoints(pts []Point, s float64) vec.V4 {
	if s <= pts[0].S {
		return pts[0].C
	}
	last := pts[len(pts)-1]
	if s >= last.S {
		return last.C
	}
	for i := 1; i < len(pts); i++ {
		if s <= pts[i].S {
			lo, hi := pts[i-1], pts[i]
			span := hi.S - lo.S
			if span <= 0 {
				return hi.C
			}
			t := float32((s - lo.S) / span)
			return lo.C.Lerp(hi.C, t)
		}
	}
	return last.C
}

// Lookup returns the color for scalar s, clamping s to [0,1] (NaN to 0)
// and linearly interpolating between adjacent table entries. Where the
// interpolated alpha is 0 the returned colour is zero too.
func (f *Func) Lookup(s float32) vec.V4 {
	n := len(f.Table)
	if n == 0 {
		return vec.V4{}
	}
	if n == 1 {
		return f.Table[0]
	}
	if !(s > 0) { // s <= 0, or NaN: a conversion of NaN to int is not an index
		return f.Table[0]
	}
	if s >= 1 {
		return f.Table[n-1]
	}
	pos := s * float32(n-1)
	i := int(pos)
	if i >= n-1 {
		return f.Table[n-1]
	}
	t := pos - float32(i)
	lo, hi := &f.Table[i], &f.Table[i+1]
	// Alpha first: the components interpolate independently, and a sample
	// with zero alpha contributes nothing whatever its colour, so the
	// colour of a transparent result is left zero instead of interpolated.
	a := lo.W + (hi.W-lo.W)*t
	if a == 0 {
		return vec.V4{W: a}
	}
	return vec.V4{
		X: lo.X + (hi.X-lo.X)*t,
		Y: lo.Y + (hi.Y-lo.Y)*t,
		Z: lo.Z + (hi.Z-lo.Z)*t,
		W: a,
	}
}

// OpacityCorrected returns a copy of f with every table entry's alpha
// replaced by the step-size opacity correction 1-(1-a)^step (colors are
// unchanged, straight alpha). Ray casters use it to precompute the
// correction once per table entry instead of calling math.Pow per sample;
// because both tables are interpolated piecewise-linearly, corrected
// lookups differ from correcting an interpolated alpha only within a
// table cell, which is below perceptual tolerance for the ≥64-entry
// tables the presets use. An entry's alpha is 0 or 1 exactly when the
// original's is, so empty-space and saturation behavior are preserved.
func (f *Func) OpacityCorrected(step float32) *Func {
	table := make([]vec.V4, len(f.Table))
	for i, c := range f.Table {
		c.W = 1 - float32(math.Pow(float64(1-c.W), float64(step)))
		table[i] = c
	}
	return &Func{Table: table}
}

// MaxAlpha returns the largest alpha in the table; a fully transparent
// function composites to nothing, which some callers want to reject.
func (f *Func) MaxAlpha() float32 {
	var m float32
	for _, c := range f.Table {
		if c.W > m {
			m = c.W
		}
	}
	return m
}
