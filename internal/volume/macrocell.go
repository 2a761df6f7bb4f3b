package volume

import (
	"math"
	"sync"
)

// This file implements macrocell grids: coarse per-cell min/max summaries
// of a scalar field, the acceleration structure behind the ray caster's
// empty-space skipping (DESIGN.md §8). A macrocell covers MacrocellEdge³
// voxels and records the exact [min, max] of the samples inside it; the
// renderer combines that with a transfer-function range query ("is any
// scalar in [min, max] mapped to nonzero opacity?") to leap rays over
// provably invisible space without taking a single texture sample there.
//
// Grids are anchored at a voxel-space origin so the same cell arithmetic
// serves both backings of BrickData: view-backed bricks share one grid
// built over the whole dense volume (memoised on the Volume, accounted by
// the staging cache), while copy-backed bricks build a private grid over
// their ghost region at stage time.

// MacrocellShift is log2 of the macrocell edge length in voxels.
const MacrocellShift = 2

// MacrocellEdge is the macrocell edge length in voxels (4, so one cell
// summarises 64 voxels — ~3% of the volume's bytes, fine enough to trace
// empty space close to surfaces, where a coarser grid loses several
// points of skip rate to boundary cells that straddle the silhouette).
const MacrocellEdge = 1 << MacrocellShift

// Macrocells is a min/max summary grid over a voxel region. Cell (i,j,k)
// covers voxels [Org + i·Edge, Org + (i+1)·Edge) per axis; Min/Max hold
// the value range of those voxels *dilated by one voxel per face*
// (clamped to the region, x-fastest layout). The dilation makes the range
// a bound on every trilinear fetch of every sample position inside the
// cell — a sample at continuous position p reads voxels floor(p−½) and
// floor(p−½)+1 per axis, which for p anywhere in the cell (plus slack
// well under half a voxel) stay within the dilated window. That is the
// conservativeness that lets a renderer skip a whole cell on the strength
// of one range query; see DESIGN.md §8. A NaN anywhere in the window makes
// Min NaN and an Inf is a bound like any other: fetches near either can
// return NaN (Inf−Inf), which is outside every range, and
// transfer.MaxAlphaInRange calls no range with such a bound empty.
//
// Flat marks the homogeneous cells, one bit each (cell i is bit i%64 of
// word i/64; see IsFlat): the cell's voxels dilated by *two* per face
// (clamped likewise) all carry one bit pattern, finite and not −0.
// Two voxels is the reach of the gradient stencil's ±1-voxel fetches, so
// in a flat cell all seven fetches of a shaded sample return Min exactly
// (v + (v−v)·w == v needs v−v == 0 and v+0 == v: finite, not −0) and the
// renderer answers the sample from the grid (DESIGN.md §8, "Homogeneous
// cells").
type Macrocells struct {
	Org   [3]int // voxel-space origin of cell (0,0,0)
	Vox   Dims   // voxel extent covered by the grid
	Cells Dims   // cell-grid extent: ceil(Vox / Edge) per axis
	Min   []float32
	Max   []float32
	Flat  []uint64
}

// macrocellCounts returns the cell-grid extent covering d voxels.
func macrocellCounts(d Dims) Dims {
	return Dims{
		X: (d.X + MacrocellEdge - 1) >> MacrocellShift,
		Y: (d.Y + MacrocellEdge - 1) >> MacrocellShift,
		Z: (d.Z + MacrocellEdge - 1) >> MacrocellShift,
	}
}

// MacrocellBytes returns the storage footprint of a macrocell grid over d
// voxels (two float32 and the flat bit per cell). It is a pure function of
// the dims, so the staging cache can reserve the bytes before the grid
// exists.
func MacrocellBytes(d Dims) int64 {
	n := macrocellCounts(d).Voxels()
	return n*8 + flatWords(n)*8
}

// flatWords returns the length of the Flat bit array for n cells.
func flatWords(n int64) int64 { return (n + 63) / 64 }

// NumCells returns the total cell count.
func (m *Macrocells) NumCells() int { return int(m.Cells.Voxels()) }

// Bytes returns the grid's storage footprint.
func (m *Macrocells) Bytes() int64 { return int64(len(m.Min)+len(m.Max))*4 + int64(len(m.Flat))*8 }

// IsFlat reports whether the cell at linear index i is homogeneous.
func (m *Macrocells) IsFlat(i int) bool { return m.Flat[i>>6]>>(i&63)&1 != 0 }

// CellIndex returns the linear index of cell (cx,cy,cz); no bounds check.
func (m *Macrocells) CellIndex(cx, cy, cz int) int {
	return (cz*m.Cells.Y+cy)*m.Cells.X + cx
}

// BuildMacrocells summarises data (a dense region of vox voxels,
// x-fastest, anchored at voxel-space origin org) into a macrocell grid.
// Each cell's range window is its own voxels dilated by one per face and
// clamped to the region; its flat window reaches one voxel further. Both
// reductions over a box window are separable, so the build reduces x,
// then y, then z: every voxel is read in layout order by one stage, and
// only the already-256×-smaller intermediate layers pay the window
// overlap — the whole build costs about one linear pass over the volume
// (it shares the staging cache's materialisation, so a render's first
// frame absorbs it and every later frame skips for free).
func BuildMacrocells(data []float32, vox Dims, org [3]int) *Macrocells {
	m := &Macrocells{Org: org, Vox: vox, Cells: macrocellCounts(vox)}
	n := m.NumCells()
	m.Min = make([]float32, n)
	m.Max = make([]float32, n)
	m.Flat = make([]uint64, flatWords(int64(n)))
	cx, cy := m.Cells.X, m.Cells.Y
	layer := cx * cy
	slab := vox.X * vox.Y

	// tmp holds one voxel layer reduced along x (per voxel row, per cell
	// column); ring holds the last ringLayers fully xy-reduced layers —
	// exactly one cell band's flat window in z (Edge+4), of which the next
	// band reuses four. The One arrays carry the flat reduction: the
	// window's single bit pattern, or notFlat.
	const ringLayers = MacrocellEdge + 4
	tmpMin := make([]float32, vox.Y*cx)
	tmpMax := make([]float32, vox.Y*cx)
	tmpOne := make([]uint32, vox.Y*cx)
	ringMin := make([]float32, ringLayers*layer)
	ringMax := make([]float32, ringLayers*layer)
	ringOne := make([]uint32, ringLayers*layer)

	// reduceLayer folds voxel layer z into ring[z%ringLayers].
	reduceLayer := func(z int) {
		base := z * slab
		for y := 0; y < vox.Y; y++ {
			row := data[base+y*vox.X : base+(y+1)*vox.X]
			out := y * cx
			for k := 0; k < cx; k++ {
				x0, x1 := windowClamp(k, vox.X, 1)
				f0, f1 := windowClamp(k, vox.X, 2)
				// The window's ends differ wherever the field has a slope,
				// so most windows that are not flat cost one comparison.
				one := math.Float32bits(row[f0])
				diff := one ^ math.Float32bits(row[f1-1])
				if diff == 0 {
					for _, v := range row[f0+1 : f1] {
						diff |= one ^ math.Float32bits(v)
					}
				}
				lo, hi := row[x0], row[x0]
				if diff != 0 || one&expMask == expMask {
					one = notFlat
					for _, v := range row[x0+1 : x1] {
						if v < lo {
							lo = v
						} else if v > hi {
							hi = v
						} else if v != v {
							lo = v // comparisons drop a NaN: keep it (min carries it on)
						}
					}
				}
				tmpMin[out+k], tmpMax[out+k], tmpOne[out+k] = lo, hi, one
			}
		}
		dst := (z % ringLayers) * layer
		for ky := 0; ky < cy; ky++ {
			y0, y1 := windowClamp(ky, vox.Y, 1)
			f0, f1 := windowClamp(ky, vox.Y, 2)
			for k := 0; k < cx; k++ {
				one := tmpOne[f0*cx+k]
				for y := f0 + 1; y < f1 && one != notFlat; y++ {
					if tmpOne[y*cx+k] != one {
						one = notFlat
					}
				}
				// A flat window's rows all hold [v, v]: only others reduce.
				lo, hi := tmpMin[y0*cx+k], tmpMax[y0*cx+k]
				for y := y0 + 1; y < y1 && one == notFlat; y++ {
					lo, hi = min(lo, tmpMin[y*cx+k]), max(hi, tmpMax[y*cx+k])
				}
				ringMin[dst+ky*cx+k], ringMax[dst+ky*cx+k], ringOne[dst+ky*cx+k] = lo, hi, one
			}
		}
	}

	next := 0 // first voxel layer not yet reduced
	for kz := 0; kz < m.Cells.Z; kz++ {
		z0, z1 := windowClamp(kz, vox.Z, 1)
		f0, f1 := windowClamp(kz, vox.Z, 2)
		for ; next < f1; next++ {
			reduceLayer(next)
		}
		out := kz * layer
		for i := 0; i < layer; i++ {
			one := ringOne[(f0%ringLayers)*layer+i]
			for z := f0 + 1; z < f1 && one != notFlat; z++ {
				if ringOne[(z%ringLayers)*layer+i] != one {
					one = notFlat
				}
			}
			lo, hi := ringMin[(z0%ringLayers)*layer+i], ringMax[(z0%ringLayers)*layer+i]
			for z := z0 + 1; z < z1 && one == notFlat; z++ {
				src := (z % ringLayers) * layer
				lo, hi = min(lo, ringMin[src+i]), max(hi, ringMax[src+i])
			}
			m.Min[out+i], m.Max[out+i] = lo, hi
			if one != notFlat {
				m.Flat[(out+i)>>6] |= 1 << ((out + i) & 63)
			}
		}
	}
	return m
}

// notFlat is the flat reduction's "more than one value" mark: the bits of
// −0, which is never a flat value itself (a window of −0 reduces to it
// directly); expMask selects the all-ones exponent of an Inf or NaN.
const (
	notFlat = 1 << 31
	expMask = 0x7f800000
)

// windowClamp returns the [lo, hi) voxel window of cell c along an axis
// of extent n: the cell's voxels dilated by reach per side, clamped.
func windowClamp(c, n, reach int) (int, int) {
	lo := c<<MacrocellShift - reach
	if lo < 0 {
		lo = 0
	}
	hi := (c+1)<<MacrocellShift + reach
	if hi > n {
		hi = n
	}
	return lo, hi
}

// macrocellMemo is the lazily-built, build-once macrocell grid attached
// to a dense Volume; concurrent brick stages of the same volume share it.
type macrocellMemo struct {
	once sync.Once
	mc   *Macrocells
}

// Macrocells returns the volume's macrocell grid, building it on first
// use (one pass over the data) and memoising it for the volume's
// lifetime. Safe for concurrent use; callers must not mutate the volume
// data after the first call.
func (v *Volume) Macrocells() *Macrocells {
	if v.mc == nil {
		// New() allocates the memo; volumes built as bare literals (tests)
		// get one on first use. This path is not safe for concurrent first
		// calls, but literal-built volumes are test-local by construction.
		v.mc = &macrocellMemo{}
	}
	v.mc.once.Do(func() {
		v.mc.mc = BuildMacrocells(v.Data, v.Dims, [3]int{})
	})
	return v.mc.mc
}
