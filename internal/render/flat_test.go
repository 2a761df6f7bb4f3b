package render

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gvmr/internal/composite"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// The homogeneous-cell branch's permanent tests: CastRay against itself
// with the grid's flat bits cleared (the kernel as it stood before the
// branch), against the seven-sample cell-by-cell loop and against the
// dense march, over generated piecewise-constant volumes and rays; and
// non-finite voxels through both paths.

// sameFetches reports whether got accounts for exactly want's fetches —
// issued or answered from the grid — and issued no more of them.
func sameFetches(got, want SampleStats) bool {
	return got.Samples+got.Skipped == want.Samples+want.Skipped && got.Samples <= want.Samples
}

// unflattened runs f with the brick's macrocell grid carrying no flat
// cells. The skip grid keeps pointing at the same Macrocells, so CastRay
// inside f is the parent kernel: leap or march, nothing else.
func unflattened(bd *volume.BrickData, f func()) {
	mc := bd.Cells()
	saved := mc.Flat
	mc.Flat = make([]uint64, len(saved))
	defer func() { mc.Flat = saved }()
	f()
}

// flatBackground is invisible under flatTF, so the plateau volumes have
// empty cells and the DDA runs; 0 itself (and with it −0, a denormal and,
// through Lookup's clamp, NaN) is visible.
const flatBackground = 0.1

func flatTF(t *testing.T) *transfer.Func {
	t.Helper()
	tf, err := transfer.FromPoints([]transfer.Point{
		{S: 0, C: vec.New4(0.9, 0.2, 0.1, 0.4)},
		{S: 0.04, C: vec.New4(0, 0, 0, 0)},
		{S: 0.2, C: vec.New4(0, 0, 0, 0)},
		{S: 0.3, C: vec.New4(0.2, 0.8, 0.3, 0.02)},
		{S: 0.6, C: vec.New4(0.3, 0.4, 0.9, 0.2)},
		{S: 0.85, C: vec.New4(1, 1, 1, 1)},
		{S: 1, C: vec.New4(1, 1, 1, 1)},
	}, transfer.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

// flatVolumes generates piecewise-constant volumes on extents that are not
// multiples of the macrocell edge: random boxes (three of 16 to 27 voxels a
// side — translucent, half-opaque and terminating at alpha 1 — the rest 1
// to 12, so thinner and thicker than the two-voxel reach; some hanging
// over a region face) of those values, an invisible one, −0, +0, a
// denormal and +Inf over the invisible background, plus one plateau sized
// to exactly one cell's flat window with a single voxel of it knocked out.
func flatVolumes(r *rand.Rand) map[string]*volume.Volume {
	values := []float32{0.45, 0.6, 0.95, 0.12, 0, float32(math.Copysign(0, -1)), 1e-40, float32(math.Inf(1))}
	out := map[string]*volume.Volume{}
	for _, d := range []volume.Dims{{X: 30, Y: 25, Z: 22}, {X: 45, Y: 38, Z: 41}} {
		ext := [3]int{d.X, d.Y, d.Z}
		for _, boxes := range []int{3, 6, 12} {
			v := volume.New(d)
			for i := range v.Data {
				v.Data[i] = flatBackground
			}
			paint := func(lo, hi [3]int, val float32) {
				for z := max(lo[2], 0); z < min(hi[2], d.Z); z++ {
					for y := max(lo[1], 0); y < min(hi[1], d.Y); y++ {
						for x := max(lo[0], 0); x < min(hi[0], d.X); x++ {
							v.Set(x, y, z, val)
						}
					}
				}
			}
			for b := 0; b < boxes; b++ {
				var lo, hi [3]int
				val, least := values[r.Intn(len(values))], 1
				if b < 3 {
					val, least = values[b], 16 // every volume has flat cells to see
				}
				for a := range lo {
					lo[a] = r.Intn(ext[a]+3) - 3
					hi[a] = lo[a] + least + r.Intn(12)
				}
				paint(lo, hi, val)
			}
			var lo, hi, hole [3]int
			for a := range lo {
				c := r.Intn((ext[a] + volume.MacrocellEdge - 1) / volume.MacrocellEdge)
				lo[a], hi[a] = c*volume.MacrocellEdge-2, (c+1)*volume.MacrocellEdge+2
				hole[a] = []int{max(lo[a], 0), min(hi[a], ext[a]) - 1}[r.Intn(2)]
			}
			paint(lo, hi, 0.45)
			v.Set(hole[0], hole[1], hole[2], flatBackground)
			out[fmt.Sprintf("%dx%dx%d-%d", d.X, d.Y, d.Z, boxes)] = v
		}
	}
	return out
}

// nanAlike folds every NaN to one pattern: the seven-sample oracle reaches
// a NaN colour by other operations than CastRay, and which payload
// survives is not part of the contract with it.
func nanAlike(f composite.Fragment) [6]uint32 {
	b := fragmentBits(f)
	for i, x := range b[1:] {
		if v := math.Float32frombits(x); v != v {
			b[1+i] = 0x7fc00000
		}
	}
	return b
}

// TestFlatRunsMatchMarchGenerated is the differential contract of the
// homogeneous-cell branch: on every generated volume × backing × ray ×
// shading × step, CastRay emits the fragment bits of the parent kernel,
// the seven-sample loop and the dense march; visits exactly the parent's
// cells; and accounts for exactly the dense march's fetches, issuing
// fewer of them.
func TestFlatRunsMatchMarchGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	base := DefaultParams(flatTF(t))
	volumes := flatVolumes(r)
	var rays, answered, terminated int
	for _, name := range slices.Sorted(maps.Keys(volumes)) {
		sp, bricks := stencilBricks(t, volume.NewVolumeSource(volumes[name], name))
		for _, bname := range slices.Sorted(maps.Keys(bricks)) {
			bd := bricks[bname]
			for _, cam := range leapRays(t, r, sp, bd.Brick.Bounds, 100) {
				for _, shading := range []bool{false, true} {
					for _, stepVoxels := range []float32{1, 0.5} {
						prm := base
						prm.Shading, prm.StepVoxels = shading, stepVoxels
						prm = prm.PrepareBrick(bd)
						dense := prm
						dense.NoEmptySkip = true
						got, gotSt := SampleOne(CastRay, cam, sp, bd, prm, 0, 0)
						var parent composite.Fragment
						var parentSt SampleStats
						unflattened(bd, func() { parent, parentSt = SampleOne(CastRay, cam, sp, bd, prm, 0, 0) })
						seven, sevenSt := SampleOne(castRaySeven, cam, sp, bd, prm, 0, 0)
						march, marchSt := SampleOne(CastRay, cam, sp, bd, dense, 0, 0)
						where := fmt.Sprintf("%s %s shading=%v step=%v ray %+v", name, bname, shading, stepVoxels, cam.Ray(0, 0))
						if fragmentBits(got) != fragmentBits(parent) || fragmentBits(got) != fragmentBits(march) || nanAlike(got) != nanAlike(seven) {
							t.Fatalf("%s: fragment %+v, parent %+v, dense march %+v, seven-sample %+v", where, got, parent, march, seven)
						}
						if gotSt.Cells != parentSt.Cells || !sameFetches(gotSt, parentSt) {
							t.Fatalf("%s: work %+v, parent %+v", where, gotSt, parentSt)
						}
						if parentSt.Samples != sevenSt.Samples || parentSt.Skipped != sevenSt.Skipped || parentSt.Cells > sevenSt.Cells {
							t.Fatalf("%s: parent work %+v, seven-sample %+v", where, parentSt, sevenSt)
						}
						if gotSt.Samples+gotSt.Skipped != marchSt.Samples || marchSt.Skipped != 0 {
							t.Fatalf("%s: %d issued + %d answered, dense march issues %d", where, gotSt.Samples, gotSt.Skipped, marchSt.Samples)
						}
						rays++
						if gotSt.Samples < parentSt.Samples {
							answered++
							if got.A >= prm.TerminationAlpha {
								terminated++
							}
						}
					}
				}
			}
		}
	}
	if answered < rays/10 || terminated == 0 {
		t.Fatalf("generator degenerate: the grid answered samples on %d of %d rays, %d of them terminated", answered, rays, terminated)
	}
}

// TestNonFiniteVoxelsRenderAlike: NaN and Inf voxels scattered through a
// smooth field neither panic (Lookup(NaN) indexed the table with a
// converted NaN) nor split the paths (a NaN is dropped by < and > alike,
// so a cell hiding one could be classed empty while the march samples it).
func TestNonFiniteVoxelsRenderAlike(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(40))
	if err != nil {
		t.Fatal(err)
	}
	v, err := volume.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		v.Data[r.Intn(len(v.Data))] = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[i%3]
	}
	// Visible at 0, where Lookup sends a NaN: a NaN sample the skipping
	// path lost would show.
	tf := flatTF(t)
	if c := tf.Lookup(float32(math.NaN())); c != tf.Table[0] || c.W == 0 {
		t.Fatalf("Lookup(NaN) = %v, want the visible table entry 0 %v", c, tf.Table[0])
	}
	sp, bricks := stencilBricks(t, volume.NewVolumeSource(v, "non-finite"))
	hits := 0
	for _, bname := range slices.Sorted(maps.Keys(bricks)) {
		bd := bricks[bname]
		for _, cam := range leapRays(t, r, sp, bd.Brick.Bounds, 200) {
			for _, shading := range []bool{false, true} {
				prm := DefaultParams(tf)
				prm.Shading = shading
				prm = prm.PrepareBrick(bd)
				dense := prm
				dense.NoEmptySkip = true
				got, gotSt := SampleOne(CastRay, cam, sp, bd, prm, 0, 0)
				march, marchSt := SampleOne(CastRay, cam, sp, bd, dense, 0, 0)
				if fragmentBits(got) != fragmentBits(march) || gotSt.Samples+gotSt.Skipped != marchSt.Samples {
					t.Fatalf("%s shading=%v ray %+v: fragment %+v work %+v, dense march %+v work %+v",
						bname, shading, cam.Ray(0, 0), got, gotSt, march, marchSt)
				}
				if gotSt.Skipped > 0 && !got.IsPlaceholder() {
					hits++
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no ray both skipped and contributed; the test compared nothing")
	}
}
