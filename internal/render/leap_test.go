package render

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gvmr/internal/camera"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// The leap's permanent tests: the distance field against brute force, and
// CastRay against the cell-by-cell loop (castRaySeven) and the dense march
// over generated occupancy shapes and rays. Under the skull preset a
// scalar of 0 is invisible and 0.6 is not, so a mask is just a volume of
// those two values.

const leapOccupied = 0.6

// maskGrid builds a macrocell grid of the given cell extent whose cell i
// is occupied under the skull preset iff occupied(i).
func maskGrid(cells volume.Dims, occupied func(i int) bool) *volume.Macrocells {
	n := int(cells.Voxels())
	mc := &volume.Macrocells{
		Vox:   volume.Dims{X: cells.X * volume.MacrocellEdge, Y: cells.Y * volume.MacrocellEdge, Z: cells.Z * volume.MacrocellEdge},
		Cells: cells, Min: make([]float32, n), Max: make([]float32, n),
	}
	for i := range mc.Max {
		if occupied(i) {
			mc.Max[i] = leapOccupied
		}
	}
	return mc
}

// TestSkipGridIsChebyshevDistance holds every cell's leap radius to the
// definition by brute force: min(255, Chebyshev distance to the nearest
// occupied cell), cells beyond the grid being empty. That is both halves
// of the contract — every cell within d−1 is empty (the leap is safe) and
// some cell at distance d is occupied unless the cap was hit (the leap is
// as long as it may be).
func TestSkipGridIsChebyshevDistance(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tf := transfer.SkullPreset()
	type grid struct {
		cells volume.Dims
		fill  float64 // probability a cell is occupied
	}
	grids := []grid{
		{volume.Dims{X: 1, Y: 1, Z: 1}, 0}, {volume.Dims{X: 1, Y: 1, Z: 1}, 1},
		{volume.Dims{X: 7, Y: 5, Z: 3}, 0}, {volume.Dims{X: 7, Y: 5, Z: 3}, 1},
		{volume.Dims{X: 300, Y: 1, Z: 2}, 0.002}, // long enough to hit the uint8 cap
	}
	for i := 0; i < 40; i++ {
		grids = append(grids, grid{
			volume.Dims{X: 1 + r.Intn(12), Y: 1 + r.Intn(10), Z: 1 + r.Intn(8)},
			[]float64{0.002, 0.02, 0.2, 0.7}[i%4],
		})
	}
	for _, gr := range grids {
		occ := make([]bool, gr.cells.Voxels())
		for i := range occ {
			occ[i] = r.Float64() < gr.fill
		}
		mc := maskGrid(gr.cells, func(i int) bool { return occ[i] })
		g := buildSkipGrid(mc, tf)
		anyEmpty := false
		for z := 0; z < gr.cells.Z; z++ {
			for y := 0; y < gr.cells.Y; y++ {
				for x := 0; x < gr.cells.X; x++ {
					want := 255
					for i, o := range occ {
						if !o {
							continue
						}
						ox, oy, oz := i%gr.cells.X, i/gr.cells.X%gr.cells.Y, i/(gr.cells.X*gr.cells.Y)
						want = min(want, max(abs(ox-x), abs(oy-y), abs(oz-z)))
					}
					anyEmpty = anyEmpty || want > 0
					if got := int(g.leap[mc.CellIndex(x, y, z)]); got != want {
						t.Fatalf("grid %v fill %v cell (%d,%d,%d): leap %d, brute force %d", gr.cells, gr.fill, x, y, z, got, want)
					}
				}
			}
		}
		if g.any != anyEmpty {
			t.Errorf("grid %v fill %v: any = %v, want %v", gr.cells, gr.fill, g.any, anyEmpty)
		}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// leapVolumes are the generated occupancy shapes, on extents that are and
// are not multiples of the macrocell edge.
func leapVolumes(r *rand.Rand) map[string]*volume.Volume {
	out := map[string]*volume.Volume{}
	for _, d := range []volume.Dims{{X: 24, Y: 24, Z: 24}, {X: 22, Y: 17, Z: 13}} {
		shape := func(name string, occupied func(x, y, z int) bool) {
			v := volume.New(d)
			for z := 0; z < d.Z; z++ {
				for y := 0; y < d.Y; y++ {
					for x := 0; x < d.X; x++ {
						if occupied(x, y, z) {
							v.Set(x, y, z, leapOccupied)
						}
					}
				}
			}
			out[fmt.Sprintf("%s-%dx%dx%d", name, d.X, d.Y, d.Z)] = v
		}
		shape("empty", func(x, y, z int) bool { return false })
		shape("full", func(x, y, z int) bool { return true })
		shape("one-cell", func(x, y, z int) bool { return x == d.X/2 && y == d.Y/2 && z == d.Z/2 })
		shape("shell", func(x, y, z int) bool {
			dx, dy, dz := float64(x)/float64(d.X)-0.5, float64(y)/float64(d.Y)-0.5, float64(z)/float64(d.Z)-0.5
			rad := math.Sqrt(dx*dx + dy*dy + dz*dz)
			return rad > 0.38 && rad < 0.42
		})
		speck := map[[3]int]bool{}
		for i := 0; i < 6; i++ {
			speck[[3]int{r.Intn(d.X), r.Intn(d.Y), r.Intn(d.Z)}] = true
		}
		shape("specks", func(x, y, z int) bool { return speck[[3]int{x, y, z}] })
	}
	return out
}

// leapRays generates one-pixel cameras whose single ray is, in turn:
// aimed from outside at a random point of the box; parallel to one or two
// axes exactly (direction components of 0); grazing — axis-parallel along
// a macrocell boundary plane or a face of the box; and starting inside.
func leapRays(t *testing.T, r *rand.Rand, sp volume.Space, b vec.AABB, n int) []*camera.Camera {
	t.Helper()
	size := b.Max.Sub(b.Min)
	inBox := func() vec.V3 {
		return vec.V3{X: b.Min.X + r.Float32()*size.X, Y: b.Min.Y + r.Float32()*size.Y, Z: b.Min.Z + r.Float32()*size.Z}
	}
	axes := [3]vec.V3{{X: 1}, {Y: 1}, {Z: 1}}
	var cams []*camera.Camera
	for i := 0; i < n; i++ {
		target := inBox()
		var eye vec.V3
		switch i % 4 {
		case 0:
			eye = target.Add(vec.V3{X: r.Float32() - 0.5, Y: r.Float32() - 0.5, Z: r.Float32() - 0.5}.Norm().Scale(3))
		case 1, 2:
			if i%4 == 2 {
				// Snap the two off-axis coordinates to a cell boundary (or,
				// at cell 0, the box face): the ray runs along cell edges.
				v := sp.WorldToVoxel(target)
				snap := func(c float32) float32 { return float32(int(c) &^ (volume.MacrocellEdge - 1)) }
				target = sp.VoxelToWorld(vec.V3{X: snap(v.X), Y: snap(v.Y), Z: snap(v.Z)})
			}
			back := axes[r.Intn(3)]
			if r.Intn(3) == 0 {
				back = back.Add(axes[r.Intn(3)]) // a diagonal of one plane, or the axis doubled
			}
			if r.Intn(2) == 0 {
				back = back.Scale(-1)
			}
			eye = target.Add(back.Scale(3))
		case 3:
			eye, target = target, inBox()
		}
		up := axes[0]
		if d := target.Sub(eye); d.Y == 0 && d.Z == 0 {
			up = axes[1]
		}
		cam, err := camera.New(eye, target, up, 0.5, 1, 1)
		if err != nil {
			continue // eye and target coincided
		}
		cams = append(cams, cam)
	}
	return cams
}

// TestLeapMatchesCellByCellGenerated is the differential contract of the
// distance-field leap: on every generated shape × backing × ray, CastRay
// emits the cell-by-cell loop's fragment bits and accounts for exactly its
// fetches (none more issued) in no more visits, and the two add up to the
// dense march.
func TestLeapMatchesCellByCellGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	base := DefaultParams(transfer.SkullPreset())
	var leapt, stepped int64
	zeroAxes := 0
	volumes := leapVolumes(r)
	for _, name := range slices.Sorted(maps.Keys(volumes)) {
		sp, bricks := stencilBricks(t, volume.NewVolumeSource(volumes[name], name))
		for _, bname := range slices.Sorted(maps.Keys(bricks)) {
			bd := bricks[bname]
			for _, cam := range leapRays(t, r, sp, bd.Brick.Bounds, 120) {
				if d := cam.Ray(0, 0).Dir; d.X == 0 || d.Y == 0 || d.Z == 0 {
					zeroAxes++
				}
				for _, shading := range []bool{false, true} {
					prm := base
					prm.Shading = shading
					prm = prm.PrepareBrick(bd)
					dense := prm
					dense.NoEmptySkip = true
					got, gotSt := SampleOne(CastRay, cam, sp, bd, prm, 0, 0)
					want, wantSt := SampleOne(castRaySeven, cam, sp, bd, prm, 0, 0)
					_, denseSt := SampleOne(CastRay, cam, sp, bd, dense, 0, 0)
					where := fmt.Sprintf("%s %s shading=%v ray %+v", name, bname, shading, cam.Ray(0, 0))
					if fragmentBits(got) != fragmentBits(want) {
						t.Fatalf("%s: fragment %+v, cell by cell %+v", where, got, want)
					}
					if !sameFetches(gotSt, wantSt) || gotSt.Cells > wantSt.Cells {
						t.Fatalf("%s: work %+v, cell by cell %+v", where, gotSt, wantSt)
					}
					if gotSt.Samples+gotSt.Skipped != denseSt.Samples {
						t.Fatalf("%s: %d taken + %d skipped, dense march takes %d", where, gotSt.Samples, gotSt.Skipped, denseSt.Samples)
					}
					leapt += gotSt.Cells
					stepped += wantSt.Cells
				}
			}
		}
	}
	if zeroAxes == 0 || stepped == 0 {
		t.Fatalf("generator degenerate: %d axis-parallel rays, %d reference visits", zeroAxes, stepped)
	}
	if leapt*5 > stepped*4 { // these grids are at most 6 cells across; a frame saves far more
		t.Errorf("leap made %d visits against %d cell by cell: the field is not being used", leapt, stepped)
	}
}

// TestLeapCrossesEmptyBrickInOneVisit: EmptyBrickData's synthetic grid is
// empty everywhere, so every cell's radius is the cap and a ray that hits
// the brick classifies once, leaps to the brick's end and never fetches
// (the brick has no data to serve).
func TestLeapCrossesEmptyBrickInOneVisit(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	zeros := volume.New(volume.Dims{X: 22, Y: 17, Z: 13})
	sp, bricks := stencilBricks(t, volume.NewVolumeSource(zeros, "zeros"))
	prm := DefaultParams(transfer.SkullPreset())
	dense := prm
	dense.NoEmptySkip = true
	hits := 0
	for _, name := range slices.Sorted(maps.Keys(bricks)) {
		real := bricks[name]
		bd := volume.EmptyBrickData(real.Brick, 0, 0.05)
		if slices.ContainsFunc(bd.Cells().Flat, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("%s: the synthetic grid has a flat cell, and no data to answer it from", name)
		}
		for _, cam := range leapRays(t, r, sp, bd.Brick.Bounds, 80) {
			frag, st := SampleOne(CastRay, cam, sp, bd, prm, 0, 0)
			_, denseSt := SampleOne(CastRay, cam, sp, real, dense, 0, 0)
			if !frag.IsPlaceholder() || st.Samples != 0 || st.Skipped != denseSt.Samples {
				t.Fatalf("%s ray %+v: fragment %+v work %+v, dense march takes %d", name, cam.Ray(0, 0), frag, st, denseSt.Samples)
			}
			if want := min(denseSt.Samples, 1); st.Cells != want {
				t.Fatalf("%s ray %+v: %d visits for %d lattice samples, want %d", name, cam.Ray(0, 0), st.Cells, denseSt.Samples, want)
			}
			hits += int(st.Cells)
		}
	}
	if hits == 0 {
		t.Fatal("no ray hit a brick; the test compared nothing")
	}
}
