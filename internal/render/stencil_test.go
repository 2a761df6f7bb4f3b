package render

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// This file keeps the ray caster as it stood before the shared-axis
// stencil — seven independent Sample calls per shaded sample, a second
// square root for the normal, a four-component transfer lookup, the
// per-cell exit loop, empty space crossed cell by cell — as test-only oracles, and holds the shipped
// kernel to their bits. (volume.BrickData.Sample itself is held to the
// old trilinearAt in internal/volume.)

// shadeAtSeven is shadeAt's seven-Sample form.
func shadeAtSeven(bd *volume.BrickData, pos vec.V3, light vec.V3) float32 {
	const h = 1.0
	g := vec.V3{
		X: bd.Sample(pos.X+h, pos.Y, pos.Z) - bd.Sample(pos.X-h, pos.Y, pos.Z),
		Y: bd.Sample(pos.X, pos.Y+h, pos.Z) - bd.Sample(pos.X, pos.Y-h, pos.Z),
		Z: bd.Sample(pos.X, pos.Y, pos.Z+h) - bd.Sample(pos.X, pos.Y, pos.Z-h),
	}
	if g.Len() < 1e-6 {
		return 1
	}
	n := g.Scale(-1).Norm()
	diffuse := n.Dot(light)
	if diffuse < 0 {
		diffuse = -diffuse
	}
	return shadeAmbient + shadeDiffuse*diffuse
}

// lookupFour is transfer.Func.Lookup interpolating all four components
// unconditionally.
func lookupFour(f *transfer.Func, s float32) vec.V4 {
	n := len(f.Table)
	if n == 0 {
		return vec.V4{}
	}
	if n == 1 {
		return f.Table[0]
	}
	if s <= 0 || s != s { // NaN used to panic below; it is entry 0 now
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
	return f.Table[i].Lerp(f.Table[i+1], t)
}

// cellExitTLoop is the macrocell exit test with nothing hoisted.
func cellExitTLoop(mc *volume.Macrocells, cx, cy, cz int, vorg, vdir [3]float32) float32 {
	cell := [3]int{cx, cy, cz}
	texit := float32(math.Inf(1))
	for a := 0; a < 3; a++ {
		d := vdir[a]
		if d == 0 {
			continue
		}
		boundary := cell[a] << volume.MacrocellShift
		if d > 0 {
			boundary += volume.MacrocellEdge
		}
		tb := (float32(mc.Org[a]+boundary) - vorg[a]) / d
		if tb < texit {
			texit = tb
		}
	}
	return texit
}

// castRaySeven is CastRay's loop before the stencil, verbatim but for the
// three oracles above standing in for the functions that changed.
func castRaySeven(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int, emit func(composite.Fragment)) SampleStats {
	var st SampleStats
	key := int32(py*cam.Width + px)
	ray := cam.Ray(px, py)
	t0, t1, ok := bd.Brick.Bounds.Intersect(ray)
	if !ok || t1 <= 0 {
		return st
	}
	if t0 < 0 {
		t0 = 0
	}
	step := sp.VoxelSize() * prm.StepVoxels
	k := int64(math.Ceil(float64(t0)/float64(step) - 0.5))
	if k < 0 {
		k = 0
	}
	prm = prm.Prepare()
	tf := prm.lookupTF()
	skip := resolveSkip(&prm, bd)
	if skip != nil && !skip.any {
		skip = nil
	}
	var vorg, vdir [3]float32
	kEnd := int64(0)
	if skip != nil {
		inv := 1 / sp.VoxelSize()
		c0 := sp.WorldToVoxel(vec.V3{})
		vorg = [3]float32{ray.Origin.X*inv + c0.X, ray.Origin.Y*inv + c0.Y, ray.Origin.Z*inv + c0.Z}
		vdir = [3]float32{ray.Dir.X * inv, ray.Dir.Y * inv, ray.Dir.Z * inv}
		kEnd = int64(math.Ceil(float64(t1)/float64(step) - 0.5))
		if kEnd < k {
			kEnd = k
		}
		for kEnd > k && (float32(kEnd-1)+0.5)*step >= t1 {
			kEnd--
		}
		for (float32(kEnd)+0.5)*step < t1 {
			kEnd++
		}
	}
	lastCell := -1
	occupiedUntil := float32(-1)

	acc := vec.V4{}
	entry := float32(-1)
	for {
		t := (float32(k) + 0.5) * step
		if t >= t1 {
			break
		}
		pos := sp.WorldToVoxel(ray.At(t))
		if skip != nil && t >= occupiedUntil {
			mc := skip.mc
			cx := clampCell((int(pos.X)-mc.Org[0])>>volume.MacrocellShift, mc.Cells.X)
			cy := clampCell((int(pos.Y)-mc.Org[1])>>volume.MacrocellShift, mc.Cells.Y)
			cz := clampCell((int(pos.Z)-mc.Org[2])>>volume.MacrocellShift, mc.Cells.Z)
			ci := mc.CellIndex(cx, cy, cz)
			if ci != lastCell {
				lastCell = ci
				st.Cells++
			}
			if skip.leap[ci] != 0 {
				texit := cellExitTLoop(mc, cx, cy, cz, vorg, vdir)
				k2 := k + 1
				if e := float64(texit)/float64(step) - 0.5; e > float64(k2) {
					if e >= float64(kEnd) {
						k2 = kEnd
					} else {
						k2 = int64(math.Ceil(e))
					}
				}
				st.Skipped += k2 - k
				k = k2
				continue
			}
			occupiedUntil = cellExitTLoop(mc, cx, cy, cz, vorg, vdir)
		}
		s := bd.Sample(pos.X, pos.Y, pos.Z)
		st.Samples++
		c := lookupFour(tf, s)
		if c.W > 0 {
			if entry < 0 {
				entry = t
			}
			if prm.Shading {
				shade := shadeAtSeven(bd, pos, lightDir)
				st.Samples += 6
				c.X *= shade
				c.Y *= shade
				c.Z *= shade
			}
			a := c.W
			acc = composite.Under(acc, vec.V4{X: c.X * a, Y: c.Y * a, Z: c.Z * a, W: a})
			if acc.W >= prm.TerminationAlpha {
				break
			}
		}
		k++
	}
	if acc.W == 0 {
		return st
	}
	if entry < 0 {
		entry = t0
	}
	emit(composite.Fragment{
		Key: key, R: acc.X, G: acc.Y, B: acc.Z, A: acc.W, Depth: entry,
	})
	return st
}

// shadeAtPos is shadeAt for a bare position: it builds the centre taps
// CastRay would have in hand.
func shadeAtPos(bd *volume.BrickData, pos vec.V3, light vec.V3) float32 {
	smp := bd.Sampler()
	return shadeAt(smp, pos, smp.TapX(pos.X), smp.TapY(pos.Y), smp.TapZ(pos.Z), light)
}

func fragmentBits(f composite.Fragment) [6]uint32 {
	return [6]uint32{
		uint32(f.Key), math.Float32bits(f.R), math.Float32bits(f.G), math.Float32bits(f.B),
		math.Float32bits(f.A), math.Float32bits(f.Depth),
	}
}

// stencilBricks returns the bricks the bit-identity tests run over: the
// whole volume view-backed, and a copy-backed interior-and-edge pair from
// a 2×2×2 bricking (ghost layers on some faces, volume edge on others).
func stencilBricks(t testing.TB, src volume.Source) (volume.Space, map[string]*volume.BrickData) {
	t.Helper()
	v, err := volume.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := volume.MakeGrid(v.Dims, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	split, err := volume.MakeGrid(v.Dims, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*volume.BrickData{"view-whole": volume.ViewBrick(v, whole.Bricks[0])}
	for _, id := range []int{0, 7} {
		bd, err := volume.FillBrick(src, split.Bricks[id])
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("copy-%d", id)] = bd
		out[fmt.Sprintf("view-%d", id)] = volume.ViewBrick(v, split.Bricks[id])
	}
	return whole.Space, out
}

// TestStencilGradientMatchesSevenSamples holds the shared-tap gradient —
// and the single-square-root normal — to the seven-Sample formula's bits,
// at positions inside, on voxel centres and out past the ghost faces.
func TestStencilGradientMatchesSevenSamples(t *testing.T) {
	src, err := dataset.New(dataset.Supernova, volume.Cube(24))
	if err != nil {
		t.Fatal(err)
	}
	_, bricks := stencilBricks(t, src)
	r := rand.New(rand.NewSource(29))
	light := vec.New3(0.5, 0.8, 0.6).Norm()
	for name, bd := range bricks {
		o, e := bd.Brick.Ghost.Org, bd.Brick.Ghost.End()
		shaded := 0
		for i := 0; i < 3000; i++ {
			var p [3]float32
			for a := range p {
				p[a] = float32(o[a]) - 2 + r.Float32()*float32(e[a]-o[a]+4)
				if r.Intn(4) == 0 {
					p[a] = float32(math.Floor(float64(p[a]))) + 0.5
				}
			}
			pos := vec.V3{X: p[0], Y: p[1], Z: p[2]}
			got, want := shadeAtPos(bd, pos, light), shadeAtSeven(bd, pos, light)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s at %v: stencil shade %x, seven-sample %x", name, pos, math.Float32bits(got), math.Float32bits(want))
			}
			if want != 1 {
				shaded++
			}
		}
		if shaded == 0 {
			t.Errorf("%s: no position had a gradient; the test compared nothing", name)
		}
	}
}

// TestNormalReusesGradientLength proves the step shadeAt relies on: the
// length of -g is the length of g bit for bit (negation leaves each
// square, and so their sum in the same order, unchanged), so scaling by
// 1/g.Len() is what Scale(-1).Norm() computes.
func TestNormalReusesGradientLength(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 20000; i++ {
		mag := float32(math.Pow(10, r.Float64()*16-10)) // 1e-10 … 1e6
		g := vec.V3{X: (r.Float32() - 0.5) * mag, Y: (r.Float32() - 0.5) * mag, Z: (r.Float32() - 0.5) * mag}
		if i%7 == 0 {
			g.Y = 0
		}
		l := g.Len()
		if math.Float32bits(g.Scale(-1).Len()) != math.Float32bits(l) {
			t.Fatalf("|-g| != |g| for %v", g)
		}
		if l == 0 {
			continue
		}
		got, want := g.Scale(-1).Scale(1/l), g.Scale(-1).Norm()
		if math.Float32bits(got.X) != math.Float32bits(want.X) ||
			math.Float32bits(got.Y) != math.Float32bits(want.Y) ||
			math.Float32bits(got.Z) != math.Float32bits(want.Z) {
			t.Fatalf("normal of %v: %v via reused length, %v via Norm", g, got, want)
		}
	}
}

// TestLookupAlphaFirstMatchesFourLerps: the early return changes nothing
// a compositor can see — alpha always, colour wherever alpha is non-zero.
func TestLookupAlphaFirstMatchesFourLerps(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, tf := range []*transfer.Func{
		transfer.SkullPreset(), transfer.SupernovaPreset(), transfer.SkullPreset().OpacityCorrected(0.5),
	} {
		for i := 0; i < 20000; i++ {
			s := r.Float32()*1.2 - 0.1
			got, want := tf.Lookup(s), lookupFour(tf, s)
			if math.Float32bits(got.W) != math.Float32bits(want.W) {
				t.Fatalf("Lookup(%v).W = %v, want %v", s, got.W, want.W)
			}
			if want.W != 0 && got != want {
				t.Fatalf("Lookup(%v) = %v, want %v", s, got, want)
			}
		}
	}
}

// TestCastRayMatchesSevenSampleLoop is the kernel's bit-identity contract:
// over a 64×64 tile, shading on and off, skipping on and off, on view- and
// copy-backed bricks, CastRay emits the fragment bits of the loop it
// replaced and accounts for exactly its fetches — issued or, in empty and
// homogeneous cells, answered from the grid (flat_test.go holds the split).
// That loop visits empty space one macrocell at a time, so its Cells is
// the ceiling, not the target: the distance-field leap may only visit
// fewer (leap_test.go).
func TestCastRayMatchesSevenSampleLoop(t *testing.T) {
	src, cam, base := testScene(t, 48, 80)
	sp, bricks := stencilBricks(t, src)
	const tile = 64
	x0, y0 := (cam.Width-tile)/2, (cam.Height-tile)/2
	for name, bd := range bricks {
		for _, shading := range []bool{false, true} {
			for _, noSkip := range []bool{false, true} {
				for _, stepVoxels := range []float32{1, 0.5} {
					prm := base
					prm.Shading, prm.NoEmptySkip, prm.StepVoxels = shading, noSkip, stepVoxels
					prm = prm.PrepareBrick(bd)
					var work SampleStats
					hits := 0
					for py := y0; py < y0+tile; py++ {
						for px := x0; px < x0+tile; px++ {
							got, gotSt := SampleOne(CastRay, cam, sp, bd, prm, px, py)
							want, wantSt := SampleOne(castRaySeven, cam, sp, bd, prm, px, py)
							if fragmentBits(got) != fragmentBits(want) {
								t.Fatalf("%s shading=%v noSkip=%v step=%v pixel (%d,%d): fragment %+v, want %+v",
									name, shading, noSkip, stepVoxels, px, py, got, want)
							}
							if !sameFetches(gotSt, wantSt) || gotSt.Cells > wantSt.Cells {
								t.Fatalf("%s shading=%v noSkip=%v step=%v pixel (%d,%d): work %+v, want %+v",
									name, shading, noSkip, stepVoxels, px, py, gotSt, wantSt)
							}
							work.Samples += gotSt.Samples
							work.Skipped += gotSt.Skipped
							work.Cells += gotSt.Cells
							if !got.IsPlaceholder() {
								hits++
							}
						}
					}
					if hits == 0 || work.Samples == 0 {
						t.Fatalf("%s: tile hit nothing (%+v); the test compared nothing", name, work)
					}
					if !noSkip && (work.Skipped == 0 || work.Cells == 0) {
						t.Errorf("%s shading=%v: skipping never engaged (%+v)", name, shading, work)
					}
				}
			}
		}
	}
}

// castRayBenchCases are the two brick shapes the frame benchmark's
// workloads put under the kernel, each under the centre tile
// bench/layers.go times: orbit-direct's large view-backed brick of an
// in-RAM volume (here the whole 128³), and orbit-paged's first brick — a
// copy-backed 36×72×72 corner of a 144³ volume bricked sixteen ways, 38
// voxels thin with its ghost layer.
func castRayBenchCases(b *testing.B) map[string]func() (*camera.Camera, volume.Space, *volume.BrickData) {
	scene := func(edge, image, bricks int, view bool) func() (*camera.Camera, volume.Space, *volume.BrickData) {
		return func() (*camera.Camera, volume.Space, *volume.BrickData) {
			src, err := dataset.New(dataset.Skull, volume.Cube(edge))
			if err != nil {
				b.Fatal(err)
			}
			g, err := volume.MakeGrid(src.Dims(), volume.FactorBricks(src.Dims(), bricks))
			if err != nil {
				b.Fatal(err)
			}
			cam, err := camera.Fit(g.Space.Bounds(), image, image)
			if err != nil {
				b.Fatal(err)
			}
			var bd *volume.BrickData
			if view {
				v, err := volume.Materialize(src)
				if err != nil {
					b.Fatal(err)
				}
				bd = volume.ViewBrick(v, g.Bricks[0])
			} else if bd, err = volume.FillBrick(src, g.Bricks[0]); err != nil {
				b.Fatal(err)
			}
			return cam, g.Space, bd
		}
	}
	return map[string]func() (*camera.Camera, volume.Space, *volume.BrickData){
		"view-128": scene(128, 160, 1, true),
		"copy-38":  scene(144, 112, 16, false),
	}
}

// BenchmarkCastRay is the map kernel alone: one op is the centre 64×64
// tile cast through one brick with prepared Params, as the traced
// benchmark's render.cast_ns_per_sample measures it. ns/sample is the
// guarded number; samples/ray and ns/ray say how much of it is per-ray
// set-up (camera ray, box test, lattice bounds) spread over the samples a
// ray takes — small bricks take few (DESIGN.md §8).
func BenchmarkCastRay(b *testing.B) {
	for _, shading := range []string{"shaded", "unshaded"} {
		for name, build := range castRayBenchCases(b) {
			b.Run(shading+"/"+name, func(b *testing.B) {
				cam, sp, bd := build()
				prm := DefaultParams(transfer.SkullPreset())
				prm.Shading = shading == "shaded"
				prm = prm.PrepareBrick(bd)
				const tile = 64
				x0, y0 := (cam.Width-tile)/2, (cam.Height-tile)/2
				var samples int64
				var sink float32
				emit := func(f composite.Fragment) { sink += f.A }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for py := y0; py < y0+tile; py++ {
						for px := x0; px < x0+tile; px++ {
							samples += CastRay(cam, sp, bd, prm, px, py, emit).Samples
						}
					}
				}
				rays := float64(b.N) * tile * tile
				ns := float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(ns/float64(samples), "ns/sample")
				b.ReportMetric(ns/rays, "ns/ray")
				b.ReportMetric(float64(samples)/rays, "samples/ray")
				_ = sink
			})
		}
	}
}

// BenchmarkSkipGridBuild is buildSkipGrid — mask, chamfer, compaction — on
// the two grids the frame benchmark builds: the 64³ cells of the 256³
// skull, once per (volume, TF), and those of orbit-paged's 38-voxel-thin
// copy-backed brick, which an uncached FillBrick path rebuilds per frame.
// Each runs beside volume.BuildMacrocells over the same voxels, the cost
// it must stay below.
func BenchmarkSkipGridBuild(b *testing.B) {
	src, err := dataset.New(dataset.Skull, volume.Cube(256))
	if err != nil {
		b.Fatal(err)
	}
	v, err := volume.Materialize(src)
	if err != nil {
		b.Fatal(err)
	}
	_, _, brick := castRayBenchCases(b)["copy-38"]()
	for _, c := range []struct {
		name string
		data []float32
		reg  volume.Region
	}{
		{"skull-256", v.Data, volume.Region{Ext: v.Dims}},
		{"copy-38", brick.Data, brick.Brick.Ghost},
	} {
		mc := volume.BuildMacrocells(c.data, c.reg.Ext, c.reg.Org)
		b.Run(c.name+"/skipgrid", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSkipGrid(mc, transfer.SkullPreset())
			}
			b.ReportMetric(float64(mc.NumCells()), "cells")
		})
		b.Run(c.name+"/macrocells", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				volume.BuildMacrocells(c.data, c.reg.Ext, c.reg.Org)
			}
		})
	}
}
