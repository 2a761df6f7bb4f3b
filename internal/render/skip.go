package render

import (
	"bytes"
	"math"
	"sync"

	"gvmr/internal/cache"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
)

// This file builds the per-(brick, transfer function) empty-space
// structure the ray caster's two-level DDA traverses: how far each cell
// of a brick's macrocell grid is from the nearest one that may be visible
// under the active transfer function. See DESIGN.md §8 for the
// conservativeness argument that makes skipping bit-identical.

// skipGrid holds one leap radius per macrocell under one lookup table. A
// cell is empty when its (one-voxel-dilated, see volume.Macrocells) value
// range maps to zero opacity everywhere. The dilation is what makes
// per-cell classification sufficient — every trilinear fetch of every
// sample a ray can attribute to the cell reads values inside the cell's
// recorded range, so a zero range-max is a proof of invisibility, not a
// heuristic.
type skipGrid struct {
	mc *volume.Macrocells
	// leap is a cell's Chebyshev distance to the nearest occupied cell,
	// capped at 255: 0 = occupied, d ≥ 1 = every cell within d−1 is empty.
	// Beyond the grid counts as empty — a leap out of it has left the
	// brick, and is clamped to the brick's end.
	leap []uint8
	any  bool // false when nothing is skippable (dense data or dense TF)

	// boxes memoises residentBox per brick core: a grid serves every
	// frame of every brick it covers, so each box is scanned once.
	mu    sync.Mutex
	boxes map[volume.Region]volume.Region
}

// MemoBuilds returns how many skip grids and opacity-corrected tables
// this process has built through the memos; tests hold them to once per
// (grid, TF).
func MemoBuilds() (grids, tables int64) {
	g, t := skipGrids.Stats(), stepTables.Stats()
	return g.Misses - g.Joins, t.Misses - t.Joins
}

// buildSkipGrid evaluates TF emptiness per cell, then turns the mask into
// distances with the exact two-pass 26-neighbour chamfer. It works on a
// copy padded by one far cell per face, so no cell has a missing
// neighbour and the passes carry no border logic.
func buildSkipGrid(mc *volume.Macrocells, tf *transfer.Func) *skipGrid {
	nx, ny, nz := mc.Cells.X, mc.Cells.Y, mc.Cells.Z
	g := &skipGrid{mc: mc, leap: make([]uint8, mc.NumCells())}
	sx, sy := nx+2, (nx+2)*(ny+2)
	pad := bytes.Repeat([]byte{math.MaxUint8}, sy*(nz+2))
	row := func(z, y int) []uint8 { return pad[z*sy+y*sx:][:sx] }
	for j := 0; j < ny*nz; j++ {
		r := row(1+j/ny, 1+j%ny)[1:]
		for x, i := 0, j*nx; x < nx; x, i = x+1, i+1 {
			if tf.MaxAlphaInRange(mc.Min[i], mc.Max[i]) != 0 {
				r[x] = 0
			} else {
				g.any = true
			}
		}
	}
	col := make([]uint8, sx)
	for _, dir := range [2]int{1, -1} {
		for j := 0; j < ny*nz; j++ {
			z, y := 1+j/ny, 1+j%ny
			if dir < 0 {
				z, y = nz+1-z, ny+1-y
			}
			chamferRow(row(z, y), row(z-dir, y-1), row(z-dir, y), row(z-dir, y+1), row(z, y-dir), col, dir)
		}
	}
	for j := 0; j < ny*nz; j++ {
		copy(g.leap[j*nx:][:nx], row(1+j/ny, 1+j%ny)[1:])
	}
	return g
}

// chamferRow relaxes one padded row in scan direction dir against the
// thirteen neighbours already final in that direction: the four rows
// behind it (a, b, c in the previous plane, d in this one), folded per
// column into col first, and the row's own previous cell.
func chamferRow(cur, a, b, c, d, col []uint8, dir int) {
	for x := range col {
		col[x] = min(a[x], b[x], c[x], d[x])
	}
	x := 1
	if dir < 0 {
		x = len(cur) - 2
	}
	for n := len(cur) - 2; n > 0; n, x = n-1, x+dir {
		if v := cur[x]; v > 1 {
			cur[x] = min(v-1, col[x-1], col[x], col[x+1], cur[x-dir]) + 1
		}
	}
}

// skipGrids memoises skip grids per (macrocell grid, transfer function)
// — the same identity discipline as stepTables: grids and tables are
// immutable once in use, so pointer identity is value identity. Step
// size is deliberately NOT in the key: opacity correction maps alpha a
// to 1-(1-a)^step, whose zero set equals the original's for any step
// (transfer.Func.OpacityCorrected documents this), so one field serves
// every step of the same (grid, TF) instead of duplicating per quality
// setting. The budget bounds the bytes the memo keeps reachable: each
// entry's field (a byte per cell) plus the macrocell grid it pins, counted
// per entry, so shared grids are over- rather than under-charged — without
// it, entries over 1024³ volumes could pin gigabytes the staging cache
// believes it already evicted.
var skipGrids = cache.New[skipKey, *skipGrid](256 << 20)

type skipKey struct {
	mc *volume.Macrocells
	tf *transfer.Func
}

// occupancyFor returns the memoised skip grid for a brick's macrocells
// under tf. The field is built from the raw table; the step-corrected
// table the sampler actually reads has exactly the same zero set, which
// is all "invisible" means.
func occupancyFor(mc *volume.Macrocells, tf *transfer.Func) *skipGrid {
	bytes := int64(mc.NumCells()) + mc.Bytes()
	g, _, _ := skipGrids.Load(skipKey{mc, tf}, bytes, func(bool) (*skipGrid, int64, error) {
		return buildSkipGrid(mc, tf), bytes, nil
	})
	return g
}

// residentMargin is how far, in voxels, the fetches of a march over a box
// of marched cells reach past it. The centre fetch reads corners floor(p−½)
// and floor(p−½)+1, one voxel beyond the box. A sample within half a voxel
// of the box's face reads only voxels of the empty cell beyond, whose
// dilated range proves it invisible, so it takes no gradient; a visible
// sample's ±1-voxel gradient fetches stay within that voxel too, save
// that p+1 is rounded in float32 and can round up onto the half-voxel
// where its corners move one voxel on — the second voxel.
const residentMargin = 2

// ResidentBox returns the part of bd's ghost region the ray caster can
// fetch from under prm, which is all an upload has to copy: the bounding
// box of the marched macrocells (leap 0, flat cells included) that touch
// the brick's core, clipped to the core, dilated by residentMargin and
// clipped to the ghost region. The box is empty when every cell is leapt
// and the whole ghost region when skipping is off. DESIGN.md §8,
// "Resident box", argues that it covers every fetched stencil.
func ResidentBox(bd *volume.BrickData, prm Params) volume.Region {
	g := resolveSkip(&prm, bd)
	if g == nil {
		return bd.Brick.Ghost
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	box, ok := g.boxes[bd.Brick.Core]
	if !ok {
		box = g.residentBox(bd.Brick)
		if g.boxes == nil {
			g.boxes = map[volume.Region]volume.Region{}
		}
		g.boxes[bd.Brick.Core] = box
	}
	return box
}

// residentBox scans the cells a sample of brick b can be classified into
// — those meeting the core grown by one voxel, as positions stray a float
// rounding outside it — for the bounding box of the marched ones.
func (g *skipGrid) residentBox(b volume.Brick) volume.Region {
	mc := g.mc
	core, ghost := b.Core, b.Ghost
	cEnd, gEnd := core.End(), ghost.End()
	n := [3]int{mc.Cells.X, mc.Cells.Y, mc.Cells.Z}
	var lo, hi, cmin, cmax [3]int
	for a := range lo {
		lo[a] = clampCell((core.Org[a]-1-mc.Org[a])>>volume.MacrocellShift, n[a])
		hi[a] = clampCell((cEnd[a]-mc.Org[a])>>volume.MacrocellShift, n[a])
		cmin[a], cmax[a] = n[a], -1
	}
	for cz := lo[2]; cz <= hi[2]; cz++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			row := g.leap[mc.CellIndex(0, cy, cz):]
			for cx := lo[0]; cx <= hi[0]; cx++ {
				if row[cx] != 0 {
					continue
				}
				c := [3]int{cx, cy, cz}
				for a := range c {
					cmin[a], cmax[a] = min(cmin[a], c[a]), max(cmax[a], c[a])
				}
			}
		}
	}
	if cmax[0] < 0 {
		return volume.Region{Org: core.Org}
	}
	var org, end [3]int
	for a := range org {
		// The cells' voxels, clamped to the core: a position classified
		// into a cell beside the core lies on the core's face.
		v0 := min(max(mc.Org[a]+cmin[a]<<volume.MacrocellShift, core.Org[a]), cEnd[a])
		v1 := min(max(mc.Org[a]+(cmax[a]+1)<<volume.MacrocellShift, core.Org[a]), cEnd[a])
		org[a] = max(v0-residentMargin, ghost.Org[a])
		end[a] = min(v1+residentMargin, gEnd[a])
	}
	return volume.Region{Org: org, Ext: volume.Dims{X: end[0] - org[0], Y: end[1] - org[1], Z: end[2] - org[2]}}
}
