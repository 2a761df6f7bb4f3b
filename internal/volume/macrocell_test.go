package volume

import (
	"math"
	"math/rand"
	"testing"
)

// bruteCellRange recomputes one cell's summary directly from the data —
// the specification BuildMacrocells must match. The range is the min/max
// of the cell dilated by one voxel per face, Min being NaN if that window
// holds one; flat means the cell dilated by two holds a single bit pattern
// that is finite and not −0.
func bruteCellRange(data []float32, vox Dims, cx, cy, cz int) (lo, hi float32, flat bool) {
	window := func(reach int, visit func(v float32)) {
		x0, x1 := windowClamp(cx, vox.X, reach)
		y0, y1 := windowClamp(cy, vox.Y, reach)
		z0, z1 := windowClamp(cz, vox.Z, reach)
		for z := z0; z < z1; z++ {
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					visit(data[(z*vox.Y+y)*vox.X+x])
				}
			}
		}
	}
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	window(1, func(v float32) {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	})
	window(1, func(v float32) {
		if v != v {
			lo = v
		}
	})
	flat = true
	const e = MacrocellEdge
	one := math.Float32bits(data[(cz*e*vox.Y+cy*e)*vox.X+cx*e]) // the cell's first voxel
	window(2, func(v float32) {
		if b := math.Float32bits(v); b != one || v-v != 0 || b == 1<<31 {
			flat = false
		}
	})
	return lo, hi, flat
}

// sameRange compares a built cell to the specification: equal bounds (±0
// alike, as every consumer compares them), or a NaN Min where the window
// holds a NaN (Max is then whatever the comparisons left).
func sameRange(gotLo, gotHi, lo, hi float32) bool {
	if lo != lo {
		return gotLo != gotLo
	}
	return gotLo == lo && gotHi == hi
}

// checkGridBruteForce holds every cell of mc, built over data, to
// bruteCellRange.
func checkGridBruteForce(t *testing.T, data []float32, d Dims, mc *Macrocells) {
	t.Helper()
	for cz := 0; cz < mc.Cells.Z; cz++ {
		for cy := 0; cy < mc.Cells.Y; cy++ {
			for cx := 0; cx < mc.Cells.X; cx++ {
				lo, hi, flat := bruteCellRange(data, d, cx, cy, cz)
				i := mc.CellIndex(cx, cy, cz)
				if !sameRange(mc.Min[i], mc.Max[i], lo, hi) || mc.IsFlat(i) != flat {
					t.Fatalf("%v cell (%d,%d,%d): [%v,%v] flat %v, want [%v,%v] flat %v",
						d, cx, cy, cz, mc.Min[i], mc.Max[i], mc.IsFlat(i), lo, hi, flat)
				}
			}
		}
	}
}

func TestMacrocellMinMaxBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	// Odd dims exercise partial cells at the high edges; X extents under
	// eight make rows narrower than one cell's flat window.
	dims := []Dims{{X: 4, Y: 4, Z: 4}, {X: 13, Y: 9, Z: 11}, {X: 17, Y: 5, Z: 23}}
	for _, x := range []int{1, 2, 3, 5, 6, 7} {
		dims = append(dims, Dims{X: x, Y: 1 + r.Intn(12), Z: 1 + r.Intn(12)})
	}
	for _, d := range dims {
		data := make([]float32, d.Voxels())
		for i := range data {
			data[i] = r.Float32()
		}
		org := [3]int{r.Intn(40), r.Intn(40), r.Intn(40)}
		mc := BuildMacrocells(data, d, org)
		want := macrocellCounts(d)
		if mc.Cells != want || mc.Org != org || mc.Vox != d {
			t.Fatalf("%v at %v: grid %v at %v over %v, want %v at %v", d, org, mc.Cells, mc.Org, mc.Vox, want, org)
		}
		checkGridBruteForce(t, data, d, mc)
	}
}

// plateauData fills a region with a background value and paints random
// boxes of single values over it — ordinary scalars, the values a flat
// cell may not hold (−0, ±Inf, NaN) and a denormal it may — so that cells
// land on every side of the flat rule: inside a plateau, one voxel short
// of it, across two, against the region's faces.
func plateauData(r *rand.Rand, d Dims, boxes int) []float32 {
	values := []float32{0.25, 0.5, 0.5, 0.75, 0, float32(math.Copysign(0, -1)), 1e-40,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	data := make([]float32, d.Voxels())
	for i := range data {
		data[i] = 0.125
	}
	ext := [3]int{d.X, d.Y, d.Z}
	for b := 0; b < boxes; b++ {
		var lo, hi [3]int
		for a := range lo {
			lo[a] = r.Intn(ext[a]+4) - 4 // boxes may start beyond a face
			hi[a] = min(lo[a]+1+r.Intn(14), ext[a])
			lo[a] = max(lo[a], 0)
		}
		v := values[r.Intn(len(values))]
		if b%3 == 0 {
			v = values[r.Intn(4)]
		}
		for z := lo[2]; z < hi[2]; z++ {
			for y := lo[1]; y < hi[1]; y++ {
				for x := lo[0]; x < hi[0]; x++ {
					data[(z*d.Y+y)*d.X+x] = v
				}
			}
		}
	}
	return data
}

// TestMacrocellFlatBruteForce holds the flat bit and the kept NaNs to the
// specification on generated piecewise-constant regions,
// and checks the generator reached the cases that matter.
func TestMacrocellFlatBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	var flats, nans, cells int
	narrow := []int{1, 2, 3, 5, 6, 7} // rows narrower than a flat window
	for trial := 0; trial < 60+2*len(narrow); trial++ {
		d := Dims{X: 1 + r.Intn(30), Y: 1 + r.Intn(26), Z: 1 + r.Intn(22)}
		if trial >= 60 {
			d.X = narrow[(trial-60)/2]
		}
		data := plateauData(r, d, r.Intn(9))
		mc := BuildMacrocells(data, d, [3]int{r.Intn(5), r.Intn(5), r.Intn(5)})
		for cz := 0; cz < mc.Cells.Z; cz++ {
			for cy := 0; cy < mc.Cells.Y; cy++ {
				for cx := 0; cx < mc.Cells.X; cx++ {
					lo, hi, flat := bruteCellRange(data, d, cx, cy, cz)
					i := mc.CellIndex(cx, cy, cz)
					if !sameRange(mc.Min[i], mc.Max[i], lo, hi) || mc.IsFlat(i) != flat {
						t.Fatalf("trial %d %v cell (%d,%d,%d): [%v,%v] flat %v, want [%v,%v] flat %v",
							trial, d, cx, cy, cz, mc.Min[i], mc.Max[i], mc.IsFlat(i), lo, hi, flat)
					}
					if flat && math.Float32bits(mc.Min[i]) != math.Float32bits(mc.Max[i]) {
						t.Fatalf("trial %d %v cell (%d,%d,%d): flat with range [%v,%v]", trial, d, cx, cy, cz, mc.Min[i], mc.Max[i])
					}
					cells++
					if flat {
						flats++
					}
					if lo != lo {
						nans++
					}
				}
			}
		}
	}
	if flats < cells/20 || flats > cells*19/20 || nans == 0 {
		t.Fatalf("generator degenerate: %d flat and %d holding a NaN of %d cells", flats, nans, cells)
	}
}

// TestMacrocellCoversTrilinearFootprint is the conservativeness contract:
// any trilinear sample taken at a position inside a cell (and up to a
// quarter voxel outside it, the DDA's attribution slack bound) reads a
// value within the cell's recorded range.
func TestMacrocellCoversTrilinearFootprint(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	d := Dims{X: 19, Y: 14, Z: 10}
	v := New(d)
	for i := range v.Data {
		v.Data[i] = r.Float32()
	}
	mc := v.Macrocells()
	for trial := 0; trial < 20000; trial++ {
		cx := r.Intn(mc.Cells.X)
		cy := r.Intn(mc.Cells.Y)
		cz := r.Intn(mc.Cells.Z)
		// Position inside the cell ± slack.
		const slack = 0.25
		px := float32(cx<<MacrocellShift) + r.Float32()*MacrocellEdge + (r.Float32()*2-1)*slack
		py := float32(cy<<MacrocellShift) + r.Float32()*MacrocellEdge + (r.Float32()*2-1)*slack
		pz := float32(cz<<MacrocellShift) + r.Float32()*MacrocellEdge + (r.Float32()*2-1)*slack
		s := v.Sample(px, py, pz)
		i := mc.CellIndex(cx, cy, cz)
		if s < mc.Min[i] || s > mc.Max[i] {
			t.Fatalf("sample %v at (%v,%v,%v) outside cell (%d,%d,%d) range [%v,%v]",
				s, px, py, pz, cx, cy, cz, mc.Min[i], mc.Max[i])
		}
	}
}

// TestBrickMacrocellsAtGhostBoundaries checks the per-brick grids built
// by FillBrick: anchored at the ghost origin, covering the ghost extent,
// with ranges that match a brute force over the ghost data — for interior
// bricks (full one-voxel ghost) and corner bricks (ghost clamped at the
// volume edge) alike.
func TestBrickMacrocellsAtGhostBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	d := Dims{X: 21, Y: 18, Z: 15}
	v := New(d)
	for i := range v.Data {
		v.Data[i] = r.Float32()
	}
	src := NewVolumeSource(v, "ghost-mc")
	g, err := MakeGrid(d, [3]int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Bricks {
		bd, err := FillBrick(src, b)
		if err != nil {
			t.Fatal(err)
		}
		mc := bd.Cells()
		if mc == nil {
			t.Fatalf("brick %d: no macrocells", b.ID)
		}
		if mc.Org != b.Ghost.Org || mc.Vox != b.Ghost.Ext {
			t.Fatalf("brick %d: grid over %v at %v, want %v at %v",
				b.ID, mc.Vox, mc.Org, b.Ghost.Ext, b.Ghost.Org)
		}
		for cz := 0; cz < mc.Cells.Z; cz++ {
			for cy := 0; cy < mc.Cells.Y; cy++ {
				for cx := 0; cx < mc.Cells.X; cx++ {
					lo, hi, flat := bruteCellRange(bd.Data, b.Ghost.Ext, cx, cy, cz)
					i := mc.CellIndex(cx, cy, cz)
					if !sameRange(mc.Min[i], mc.Max[i], lo, hi) || mc.IsFlat(i) != flat {
						t.Fatalf("brick %d cell (%d,%d,%d): [%v,%v] flat %v, want [%v,%v] flat %v",
							b.ID, cx, cy, cz, mc.Min[i], mc.Max[i], mc.IsFlat(i), lo, hi, flat)
					}
				}
			}
		}
	}
}

// TestMacrocellsMemoised: a volume builds its grid once; every view of it
// shares that build, while copy-backed bricks get private grids.
func TestMacrocellsMemoised(t *testing.T) {
	d := Dims{X: 9, Y: 9, Z: 9}
	v := New(d)
	if v.Macrocells() != v.Macrocells() {
		t.Error("Volume.Macrocells rebuilt on second call")
	}
	g, err := MakeGrid(d, [3]int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	a := ViewBrick(v, g.Bricks[0])
	b := ViewBrick(v, g.Bricks[1])
	if a.Cells() != v.Macrocells() || b.Cells() != v.Macrocells() {
		t.Error("view-backed bricks should share the volume's grid")
	}
	src := NewVolumeSource(v, "memo")
	c0, err := FillBrick(src, g.Bricks[0])
	if err != nil {
		t.Fatal(err)
	}
	if c0.Cells() == v.Macrocells() {
		t.Error("copy-backed brick should carry a private ghost-region grid")
	}
	if c0.Cells() == nil || c0.Cells().Org != g.Bricks[0].Ghost.Org {
		t.Error("copy-backed grid missing or mis-anchored")
	}
}

func TestMacrocellBytesMatchesBuild(t *testing.T) {
	for _, d := range []Dims{{X: 1, Y: 1, Z: 1}, {X: 8, Y: 8, Z: 8}, {X: 13, Y: 7, Z: 29}} {
		mc := BuildMacrocells(make([]float32, d.Voxels()), d, [3]int{})
		if got, want := mc.Bytes(), MacrocellBytes(d); got != want {
			t.Errorf("%v: built %d bytes, predicted %d", d, got, want)
		}
	}
}
