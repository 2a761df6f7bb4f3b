package volume

import (
	"math"
	"math/rand"
	"testing"
)

// trilinearAt is the sampler as it stood before the shared-axis taps, kept
// verbatim as the oracle: every float operation of Sampler.Sample must
// reproduce its bits. It samples sub-region r of an array laid out with
// dims full at r-local continuous coordinates, clamping at the region
// boundary.
func trilinearAt(data []float32, full Dims, r Region, px, py, pz float32) float32 {
	clampIdx := func(i, n int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	qx := float64(px) - 0.5
	qy := float64(py) - 0.5
	qz := float64(pz) - 0.5
	x0f := math.Floor(qx)
	y0f := math.Floor(qy)
	z0f := math.Floor(qz)
	fx := float32(qx - x0f)
	fy := float32(qy - y0f)
	fz := float32(qz - z0f)
	x0 := clampIdx(int(x0f), r.Ext.X)
	y0 := clampIdx(int(y0f), r.Ext.Y)
	z0 := clampIdx(int(z0f), r.Ext.Z)
	x1 := clampIdx(int(x0f)+1, r.Ext.X)
	y1 := clampIdx(int(y0f)+1, r.Ext.Y)
	z1 := clampIdx(int(z0f)+1, r.Ext.Z)

	row := full.X
	slab := full.X * full.Y
	x0 += r.Org[0]
	x1 += r.Org[0]
	y0 += r.Org[1]
	y1 += r.Org[1]
	z0 += r.Org[2]
	z1 += r.Org[2]
	c000 := data[z0*slab+y0*row+x0]
	c100 := data[z0*slab+y0*row+x1]
	c010 := data[z0*slab+y1*row+x0]
	c110 := data[z0*slab+y1*row+x1]
	c001 := data[z1*slab+y0*row+x0]
	c101 := data[z1*slab+y0*row+x1]
	c011 := data[z1*slab+y1*row+x0]
	c111 := data[z1*slab+y1*row+x1]

	c00 := c000 + (c100-c000)*fx
	c10 := c010 + (c110-c010)*fx
	c01 := c001 + (c101-c001)*fx
	c11 := c011 + (c111-c011)*fx
	c0 := c00 + (c10-c00)*fy
	c1 := c01 + (c11-c01)*fy
	return c0 + (c1-c0)*fz
}

// oracleBrickSample is BrickData.Sample as it stood: the ghost origin is
// subtracted in float32, then the region is the ghost box inside the full
// volume (view-backed) or the whole copied array.
func oracleBrickSample(bd *BrickData, px, py, pz float32) float32 {
	g := bd.Brick.Ghost
	lx := px - float32(g.Org[0])
	ly := py - float32(g.Org[1])
	lz := pz - float32(g.Org[2])
	if bd.full != nil {
		return trilinearAt(bd.full, bd.fullDims, g, lx, ly, lz)
	}
	return trilinearAt(bd.Data, g.Ext, Region{Ext: g.Ext}, lx, ly, lz)
}

// samplePositions draws positions that exercise every path of the axis
// set-up over the box [org, end): uniform up to two voxels outside every
// face (the clamp path), exactly on voxel centres, on integer lattice
// planes, and mixtures of the three per axis.
func samplePositions(r *rand.Rand, org, end [3]int, n int) [][3]float32 {
	pts := make([][3]float32, n)
	for i := range pts {
		for a := 0; a < 3; a++ {
			lo, span := float32(org[a])-2, float32(end[a]-org[a]+4)
			switch r.Intn(4) {
			case 0: // voxel centre, possibly outside
				pts[i][a] = float32(org[a]-2+r.Intn(end[a]-org[a]+4)) + 0.5
			case 1: // lattice plane
				pts[i][a] = float32(org[a] - 2 + r.Intn(end[a]-org[a]+5))
			default:
				pts[i][a] = lo + r.Float32()*span
			}
		}
	}
	return pts
}

// TestSamplerMatchesOracleBits is the sampler's bit-identity contract:
// three taps and a fetch reproduce the pre-stencil trilinearAt bit for
// bit, on a dense volume and on view-backed, copy-backed and literal-
// built bricks, inside, on voxel centres and clamped outside every face.
func TestSamplerMatchesOracleBits(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	v := randomVolume(r, Dims{19, 14, 11})
	all := Region{Ext: v.Dims}
	for _, p := range samplePositions(r, all.Org, all.End(), 4000) {
		got := v.Sample(p[0], p[1], p[2])
		want := trilinearAt(v.Data, v.Dims, all, p[0], p[1], p[2])
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Volume.Sample%v = %x, oracle %x", p, math.Float32bits(got), math.Float32bits(want))
		}
	}

	g, err := MakeGrid(v.Dims, [3]int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	src := NewVolumeSource(v, "t")
	for _, b := range g.Bricks {
		filled, err := FillBrick(src, b)
		if err != nil {
			t.Fatal(err)
		}
		bricks := map[string]*BrickData{
			"view":         ViewBrick(v, b),
			"copy":         filled,
			"literal-copy": {Brick: b, Data: filled.Data},
			"literal-view": {Brick: b, full: v.Data, fullDims: v.Dims},
		}
		pts := samplePositions(r, b.Ghost.Org, b.Ghost.End(), 1500)
		for name, bd := range bricks {
			smp := bd.Sampler()
			for _, p := range pts {
				want := math.Float32bits(oracleBrickSample(bd, p[0], p[1], p[2]))
				if got := math.Float32bits(bd.Sample(p[0], p[1], p[2])); got != want {
					t.Fatalf("brick %d %s: Sample%v = %x, oracle %x", b.ID, name, p, got, want)
				}
				// The taps are independent per axis: built apart, in any
				// order, they fetch the same bits.
				tz, tx, ty := smp.TapZ(p[2]), smp.TapX(p[0]), smp.TapY(p[1])
				if got := math.Float32bits(smp.Fetch(tx, ty, tz)); got != want {
					t.Fatalf("brick %d %s: Fetch%v = %x, oracle %x", b.ID, name, p, got, want)
				}
			}
		}
	}
}

// BenchmarkFetch measures one trilinear fetch through prebuilt taps — the
// eight loads and seven lerps every sample and every gradient tap pays —
// and, beside it, the three axis set-ups plus the fetch (Sample).
func BenchmarkFetch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := randomVolume(r, Cube(64))
	g, err := MakeGrid(v.Dims, [3]int{1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	smp := ViewBrick(v, g.Bricks[0]).Sampler()
	type taps struct{ x, y, z Tap }
	pts := make([][3]float32, 1024)
	pre := make([]taps, len(pts))
	for i := range pts {
		pts[i] = [3]float32{r.Float32() * 64, r.Float32() * 64, r.Float32() * 64}
		pre[i] = taps{smp.TapX(pts[i][0]), smp.TapY(pts[i][1]), smp.TapZ(pts[i][2])}
	}
	var sink float32
	b.Run("fetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := &pre[i%len(pre)]
			sink += smp.Fetch(p.x, p.y, p.z)
		}
	})
	b.Run("taps+fetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := &pts[i%len(pts)]
			sink += smp.Sample(p[0], p[1], p[2])
		}
	})
	_ = sink
}
