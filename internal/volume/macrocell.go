package volume

import (
	"math"
	"sync"
	"unsafe"
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
// overlap — the whole build costs about one linear pass over the volume.
//
// Most of a volume is runs of one value, so every stage does its work
// where the runs end. The x stage copies each voxel row into a buffer
// padded with the row's end voxels, where every cell's flat window is the
// same eight slots: flatness is one branch-free XOR-OR, a flat window's
// run is followed to its end two voxels a compare and answers every cell
// it covers, and only cells that are not flat take a min/max. The y
// stage answers the cells of a band that lie in runs opening or closing
// all of its rows without reading them. The y and z stages reduce a
// whole row of cells at a time, the flat marks column by column, the
// ranges only in columns that are not flat.
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
	// band reuses four (a power of two, so z%ringLayers is z&(ringLayers−1)).
	// The One arrays carry the flat reduction: the window's single bit
	// pattern, or notFlat.
	const ringLayers = MacrocellEdge + 4
	tmpLen, ringLen := vox.Y*cx, ringLayers*layer
	fbuf := make([]float32, 2*tmpLen+2*ringLen)
	ringMin, ringMax := fbuf[2*tmpLen:2*tmpLen+ringLen], fbuf[2*tmpLen+ringLen:2*tmpLen+2*ringLen]
	ubuf := make([]uint32, tmpLen+ringLen+layer)
	ringOne, zOne := ubuf[tmpLen:tmpLen+ringLen], ubuf[tmpLen+ringLen:]
	x := xFold{
		cx: cx, min: fbuf[:tmpLen], max: fbuf[tmpLen : 2*tmpLen], one: ubuf[:tmpLen],
		runs: make([]rowRuns, vox.Y), pad64: make([]uint64, (cx<<MacrocellShift+4)/2),
	}
	f := cellFold{cols: make([]int32, 0, layer)}

	next := 0 // first voxel layer not yet reduced
	for kz := 0; kz < m.Cells.Z; kz++ {
		z0, z1 := windowClamp(kz, vox.Z, 1)
		f0, f1 := windowClamp(kz, vox.Z, 2)
		// Fold voxel layers into ring[z%ringLayers].
		for ; next < f1; next++ {
			base := next * slab
			for y := 0; y < vox.Y; y++ {
				x.row(y, data[base+y*vox.X:base+(y+1)*vox.X])
			}
			dst := (next & (ringLayers - 1)) * layer
			for ky := 0; ky < cy; ky++ {
				y0, y1 := windowClamp(ky, vox.Y, 1)
				f0, f1 := windowClamp(ky, vox.Y, 2)
				oMin, oMax, oOne := ringMin[dst+ky*cx:][:cx], ringMax[dst+ky*cx:][:cx], ringOne[dst+ky*cx:][:cx]
				// Cells [0, k0) of every row of the window hold one flat
				// value, and so do cells [k1, cx): so do the band's.
				k0, k1 := cx, 0
				lead, trail := x.runs[f0].leadBits, x.runs[f0].trailBits
				for _, r := range x.runs[f0:f1] {
					if r.leadBits == lead {
						k0 = min(k0, int(r.lead))
					} else {
						k0 = 0
					}
					if r.trailBits == trail {
						k1 = max(k1, int(r.trail))
					} else {
						k1 = cx
					}
				}
				if k0 >= k1 { // every row is the one value
					fillCells(oMin, oMax, oOne, math.Float32frombits(lead))
					continue
				}
				fillCells(oMin[:k0], oMax[:k0], oOne[:k0], math.Float32frombits(lead))
				fillCells(oMin[k1:], oMax[k1:], oOne[k1:], math.Float32frombits(trail))
				for y := f0; y < f1; y++ {
					x.need(y, k0, k1)
				}
				f.rows(x.one[k0:], x.min[k0:], x.max[k0:], cx, -1, f0, f1, y0, y1,
					oOne[k0:k1], oMin[k0:k1], oMax[k0:k1])
			}
		}
		out := kz * layer
		f.rows(ringOne, ringMin, ringMax, layer, ringLayers-1, f0, f1, z0, z1,
			zOne, m.Min[out:out+layer], m.Max[out:out+layer])
		for i, o := range zOne {
			if o != notFlat {
				m.Flat[(out+i)>>6] |= 1 << ((out + i) & 63)
			}
		}
	}
	return m
}

// rowRuns is what the x stage leaves of a voxel row of n cells: cells
// [0, lead) hold the flat value leadBits, cells [trail, n) the flat value
// trailBits, and the x stage's arrays hold cells [lo, hi), a range that
// covers [lead, trail) and grows as bands ask for more. A row of one flat
// value has lead n, trail 0 and nothing in the arrays.
type rowRuns struct {
	lead, trail         int32
	leadBits, trailBits uint32
	lo, hi              int
}

// flatValue reports whether a flat cell may hold the value with bits b:
// finite and not −0.
func flatValue(b uint32) bool { return b&expMask != expMask && b != notFlat }

// xFold is the x stage: one voxel layer reduced along x, cx cells a row,
// into min, max and one (the flat marks), what each row's runs hold, and
// the padded row buffer.
type xFold struct {
	cx       int
	min, max []float32
	one      []uint32
	runs     []rowRuns
	pad64    []uint64
}

// need makes cells [a, b) of voxel row y valid in the x stage's arrays,
// filling in what the row's runs hold.
func (x *xFold) need(y, a, b int) {
	r, t := &x.runs[y], y*x.cx
	if r.lo >= r.hi { // a row of one value: all of [a, b) is its lead
		r.lo, r.hi = b, b
	}
	if a < r.lo {
		fillCells(x.min[t+a:t+r.lo], x.max[t+a:t+r.lo], x.one[t+a:t+r.lo], math.Float32frombits(r.leadBits))
		r.lo = a
	}
	if b > r.hi {
		fillCells(x.min[t+r.hi:t+b], x.max[t+r.hi:t+b], x.one[t+r.hi:t+b], math.Float32frombits(r.trailBits))
		r.hi = b
	}
}

// row reduces voxel row y into its cells' x ranges and flat marks. It
// reads the row from pad64: the row led by two copies of its first voxel
// and trailed by copies of its last, so that cell k's flat window is the
// eight voxels in pad64[2k, 2k+4) and its range window pad[4k+1, 4k+7).
// The repeated end voxels are already in the clamped windows, and
// repeating a value leaves either reduction unchanged. A flat window
// opens a run, which is followed to its end: every cell whose window the
// run covers holds its value, and the runs that open and close the row
// are left out of the arrays (see rowRuns).
func (x *xFold) row(y int, row []float32) {
	n, t := x.cx, y*x.cx
	lo, hi, ones := x.min[t:t+n], x.max[t:t+n], x.one[t:t+n]
	pad64 := x.pad64[:2*n+2]
	pad := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(pad64))), 4*n+4)
	pad[0], pad[1] = row[0], row[0]
	tail := pad[2+copy(pad[2:], row):]
	for i := range tail {
		tail[i] = row[len(row)-1]
	}
	r := rowRuns{trail: int32(n)}
	for k := 0; k < n; k++ {
		w := pad64[2*k : 2*k+4 : 2*k+4]
		b := w[0] & 0xffffffff
		b64 := b | b<<32
		if (w[0]^b64)|(w[1]^b64)|(w[2]^b64)|(w[3]^b64) == 0 && flatValue(uint32(b)) {
			e := 2*k + 4
			for e < len(pad64) && pad64[e] == b64 {
				e++
			}
			end := min(e/2-1, n)
			switch {
			case k == 0 && end == n: // a row of one value
				r = rowRuns{lead: int32(n), leadBits: uint32(b), trailBits: uint32(b)}
			case k == 0:
				r.lead, r.leadBits = int32(end), uint32(b)
			case end == n:
				r.trail, r.trailBits = int32(k), uint32(b)
			default:
				fillCells(lo[k:end], hi[k:end], ones[k:end], math.Float32frombits(uint32(b)))
			}
			k = end - 1
			continue
		}
		// On a window of non-negative numbers — all a density holds — the
		// range is the least and greatest bit pattern, found without a
		// branch; compareRange takes any other window.
		v := pad[4*k+1 : 4*k+7 : 4*k+7]
		b0, b1, b2 := int32(math.Float32bits(v[0])), int32(math.Float32bits(v[1])), int32(math.Float32bits(v[2]))
		b3, b4, b5 := int32(math.Float32bits(v[3])), int32(math.Float32bits(v[4])), int32(math.Float32bits(v[5]))
		if l, h := min(b0, b1, b2, b3, b4, b5), max(b0, b1, b2, b3, b4, b5); l >= 0 && h <= expMask {
			lo[k], hi[k] = math.Float32frombits(uint32(l)), math.Float32frombits(uint32(h))
		} else {
			lo[k], hi[k] = compareRange(v)
		}
		ones[k] = notFlat
	}
	r.lo, r.hi = int(r.lead), int(r.trail)
	x.runs[y] = r
}

// compareRange returns a window's range as a one-at-a-time compare loop
// finds it: Min and Max are the window's first voxel, lowered to each
// smaller voxel, raised to each larger one, and Min is set to each NaN
// (comparisons drop it).
func compareRange(r []float32) (lo, hi float32) {
	lo, hi = r[0], r[0]
	for _, v := range r[1:] {
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		} else if v != v {
			lo = v
		}
	}
	return lo, hi
}

// fillCells sets cells whose flat windows hold only v: flat, unless v
// may not be (an Inf, a NaN or −0, whose bits are notFlat already).
func fillCells(lo, hi []float32, ones []uint32, v float32) {
	b := math.Float32bits(v)
	if b&expMask == expMask {
		b = notFlat
	}
	for k := range ones {
		lo[k], hi[k], ones[k] = v, v, b
	}
}

// cellFold is the scratch of the y and z stages: the columns of a row
// of cells that are not flat.
type cellFold struct{ cols []int32 }

// rows folds rows of len(one) cells into one row: the flat marks of
// rows [f0, f1) into one, the ranges of rows [r0, r1) into lo and hi.
// Row r starts at (r&mask)·stride in ones, mins and maxs. A flat
// window's rows all hold [v, v], so only the other columns reduce their
// ranges.
func (f *cellFold) rows(ones []uint32, mins, maxs []float32, stride, mask, f0, f1, r0, r1 int,
	one []uint32, lo, hi []float32) {
	w := len(one)
	row := func(r int) int { return (r & mask) * stride }
	mixed := f.cols[:0]
	if f1-f0 == MacrocellEdge+4 {
		// An unclamped window: eight rows, each column's XOR-OR in registers.
		a0, a1, a2, a3 := ones[row(f0):][:w], ones[row(f0+1):][:w], ones[row(f0+2):][:w], ones[row(f0+3):][:w]
		a4, a5, a6, a7 := ones[row(f0+4):][:w], ones[row(f0+5):][:w], ones[row(f0+6):][:w], ones[row(f0+7):][:w]
		for k, b := range a0 {
			if (a1[k]^b)|(a2[k]^b)|(a3[k]^b)|(a4[k]^b)|(a5[k]^b)|(a6[k]^b)|(a7[k]^b) != 0 {
				b = notFlat
			}
			one[k] = b
			if b == notFlat {
				mixed = append(mixed, int32(k))
			}
		}
	} else {
		copy(one, ones[row(f0):][:w])
		for r := f0 + 1; r < f1; r++ {
			src := ones[row(r):][:w]
			for k, b := range src {
				if b != one[k] {
					one[k] = notFlat
				}
			}
		}
		for k, b := range one {
			if b == notFlat {
				mixed = append(mixed, int32(k))
			}
		}
	}
	copy(lo, mins[row(r0):][:w])
	copy(hi, maxs[row(r0):][:w])
	var at [MacrocellEdge + 2]int
	for r := r0 + 1; r < r1; r++ {
		at[r-r0-1] = row(r)
	}
	rest := at[:r1-r0-1]
	for _, k := range mixed {
		// On non-negative numbers the builtins' float order is the order
		// of the bit patterns, which compare without a branch; the
		// greatest pattern of each input says whether all are such.
		l, h := math.Float32bits(lo[k]), math.Float32bits(hi[k])
		top := l
		for _, a := range rest {
			b := math.Float32bits(mins[a+int(k)])
			l, top = min(l, b), max(top, b)
			h = max(h, math.Float32bits(maxs[a+int(k)]))
		}
		if max(top, h) <= expMask {
			lo[k], hi[k] = math.Float32frombits(l), math.Float32frombits(h)
			continue
		}
		fl, fh := lo[k], hi[k]
		for _, a := range rest {
			fl, fh = min(fl, mins[a+int(k)]), max(fh, maxs[a+int(k)])
		}
		lo[k], hi[k] = fl, fh
	}
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
