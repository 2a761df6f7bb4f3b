package volume

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gvmr/internal/vec"
)

func vecOf(x, y, z float64) vec.V3 { return vec.New3(x, y, z) }

func TestMakeGridTilesExactly(t *testing.T) {
	d := Dims{10, 7, 5}
	g, err := MakeGrid(d, [3]int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBricks() != 12 {
		t.Fatalf("NumBricks = %d, want 12", g.NumBricks())
	}
	// Every voxel belongs to exactly one core region.
	count := New(d)
	for _, b := range g.Bricks {
		e := b.Core.End()
		for z := b.Core.Org[2]; z < e[2]; z++ {
			for y := b.Core.Org[1]; y < e[1]; y++ {
				for x := b.Core.Org[0]; x < e[0]; x++ {
					count.Set(x, y, z, count.At(x, y, z)+1)
				}
			}
		}
	}
	for i, c := range count.Data {
		if c != 1 {
			t.Fatalf("voxel %d covered %v times, want exactly once", i, c)
		}
	}
}

func TestGhostRegionPadding(t *testing.T) {
	g, err := MakeGrid(Dims{8, 8, 8}, [3]int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	left := g.Bricks[0]
	right := g.Bricks[1]
	// Left brick: core [0,4), ghost clamped at 0, extended to 5 on the right.
	if left.Ghost.Org != [3]int{0, 0, 0} {
		t.Errorf("left ghost org = %v", left.Ghost.Org)
	}
	if left.Ghost.Ext.X != 5 {
		t.Errorf("left ghost ext X = %d, want 5", left.Ghost.Ext.X)
	}
	// Right brick: core [4,8), ghost [3,8).
	if right.Ghost.Org != [3]int{3, 0, 0} {
		t.Errorf("right ghost org = %v", right.Ghost.Org)
	}
	if right.Ghost.Ext.X != 5 {
		t.Errorf("right ghost ext X = %d, want 5", right.Ghost.Ext.X)
	}
}

func TestMakeGridRejectsBadCounts(t *testing.T) {
	if _, err := MakeGrid(Dims{4, 4, 4}, [3]int{5, 1, 1}); err == nil {
		t.Error("counts exceeding dims accepted")
	}
	if _, err := MakeGrid(Dims{4, 4, 4}, [3]int{0, 1, 1}); err == nil {
		t.Error("zero count accepted")
	}
}

func TestFactorBricksCubeVolume(t *testing.T) {
	cases := []struct {
		n    int
		want int // product check only; shape checked by score properties
	}{
		{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {32, 32},
	}
	d := Cube(256)
	for _, c := range cases {
		f := FactorBricks(d, c.n)
		if f[0]*f[1]*f[2] != c.want {
			t.Errorf("FactorBricks(%d) = %v, product != %d", c.n, f, c.want)
		}
	}
	// 8 bricks of a cube should be 2x2x2.
	if f := FactorBricks(d, 8); f != [3]int{2, 2, 2} {
		t.Errorf("FactorBricks(cube, 8) = %v, want 2x2x2", f)
	}
}

func TestFactorBricksAnisotropic(t *testing.T) {
	// Plume 512x512x2048: 4 bricks should split the tall axis.
	f := FactorBricks(Dims{512, 512, 2048}, 4)
	if f != [3]int{1, 1, 4} {
		t.Errorf("FactorBricks(plume, 4) = %v, want 1x1x4", f)
	}
	// 8 bricks: 1x2x4 or 2x1x4 give 512x256x512 bricks (aspect 2);
	// 1x1x8 gives 512x512x256 (aspect 2) — any is acceptable, but the
	// product must hold and no axis may exceed its dim.
	f = FactorBricks(Dims{512, 512, 2048}, 8)
	if f[0]*f[1]*f[2] != 8 {
		t.Errorf("FactorBricks(plume, 8) = %v", f)
	}
}

// Property: brick sampling equals full-volume sampling for positions inside
// the brick core — the ghost-layer seamlessness invariant the renderer
// relies on.
func TestBrickSampleSeamlessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	v := randomVolume(r, Dims{16, 12, 9})
	src := NewVolumeSource(v, "t")
	g, err := MakeGrid(v.Dims, [3]int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	bricks := make([]*BrickData, 0, g.NumBricks())
	for _, b := range g.Bricks {
		bd, err := FillBrick(src, b)
		if err != nil {
			t.Fatal(err)
		}
		bricks = append(bricks, bd)
	}
	prop := func() bool {
		bd := bricks[r.Intn(len(bricks))]
		c := bd.Brick.Core
		e := c.End()
		px := float32(c.Org[0]) + float32(r.Float64())*float32(e[0]-c.Org[0])
		py := float32(c.Org[1]) + float32(r.Float64())*float32(e[1]-c.Org[1])
		pz := float32(c.Org[2]) + float32(r.Float64())*float32(e[2]-c.Org[2])
		got := bd.Sample(px, py, pz)
		want := v.Sample(px, py, pz)
		return abs32(got-want) <= 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBrickBytesAndGridMax(t *testing.T) {
	g, err := MakeGrid(Dims{8, 8, 8}, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each brick core is 4³, ghost is 5³ → 125 voxels → 500 bytes.
	for _, b := range g.Bricks {
		if b.Bytes() != 500 {
			t.Errorf("brick %d bytes = %d, want 500", b.ID, b.Bytes())
		}
	}
	if g.MaxBrickBytes() != 500 {
		t.Errorf("MaxBrickBytes = %d", g.MaxBrickBytes())
	}
}

func TestBrickWorldBoundsTile(t *testing.T) {
	d := Dims{8, 8, 8}
	g, err := MakeGrid(d, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	union := g.Bricks[0].Bounds
	for _, b := range g.Bricks[1:] {
		union = vec.AABB{Min: union.Min.Min(b.Bounds.Min), Max: union.Max.Max(b.Bounds.Max)}
	}
	want := g.Space.Bounds()
	if union.Min.Sub(want.Min).Len() > 1e-6 || union.Max.Sub(want.Max).Len() > 1e-6 {
		t.Errorf("brick bounds union %v != volume bounds %v", union, want)
	}
}

// TestReleaseRecyclesGhostBuffers: a released copy-backed brick's buffer
// is the next same-shaped FillBrick's, holding that brick's bits; a view,
// an empty brick and a second Release return nothing. Past its bound the
// list makes way for a new length by dropping the others, and drops a
// buffer that would not fit alone.
func TestReleaseRecyclesGhostBuffers(t *testing.T) {
	v := randomVolume(rand.New(rand.NewSource(3)), Dims{8, 8, 7})
	src := NewVolumeSource(v, "r")
	g, err := MakeGrid(v.Dims, [3]int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := FillBrick(src, g.Bricks[0])
	if err != nil {
		t.Fatal(err)
	}
	buf := &first.Data[0]
	first.Release()
	first.Release()
	ViewBrick(v, g.Bricks[0]).Release()
	EmptyBrickData(g.Bricks[0], 0, 0).Release()
	if first.Data != nil {
		t.Fatal("a released brick still holds its buffer")
	}
	again, err := FillBrick(src, g.Bricks[1]) // the same ghost extent, mirrored
	if err != nil {
		t.Fatal(err)
	}
	if &again.Data[0] != buf {
		t.Error("FillBrick of the same shape did not take the released buffer")
	}
	for i := range again.Data {
		r := g.Bricks[1].Ghost
		x, y, z := i%r.Ext.X, i/r.Ext.X%r.Ext.Y, i/(r.Ext.X*r.Ext.Y)
		if again.Data[i] != v.At(r.Org[0]+x, r.Org[1]+y, r.Org[2]+z) {
			t.Fatalf("voxel %d of the recycled brick is not the source's", i)
		}
	}

	l := freeList{max: 64, bufs: map[int][][]float32{}}
	for i := 0; i < 5; i++ {
		l.put(make([]float32, 4)) // the fifth is past the bound
	}
	if l.bytes != 64 || len(l.bufs[4]) != 4 {
		t.Fatalf("after five puts of 16 bytes: %d bytes, %d buffers", l.bytes, len(l.bufs[4]))
	}
	l.put(make([]float32, 8))
	if l.bytes != 32 || len(l.bufs) != 1 || len(l.bufs[8]) != 1 {
		t.Fatalf("a new length did not displace the old: %d bytes, %d lengths", l.bytes, len(l.bufs))
	}
	l.put(make([]float32, 17))
	if l.bytes != 32 || len(l.bufs) != 1 {
		t.Fatalf("a buffer larger than the bound was kept: %d bytes", l.bytes)
	}
	if got := l.get(8); len(got) != 8 || l.bytes != 0 {
		t.Fatalf("get: %d elements, %d bytes left", len(got), l.bytes)
	}
}
