package volume

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomVolume(r *rand.Rand, d Dims) *Volume {
	v := New(d)
	for i := range v.Data {
		v.Data[i] = float32(r.Float64())
	}
	return v
}

func TestDims(t *testing.T) {
	d := Dims{4, 5, 6}
	if d.Voxels() != 120 {
		t.Errorf("Voxels = %d", d.Voxels())
	}
	if d.Bytes() != 480 {
		t.Errorf("Bytes = %d", d.Bytes())
	}
	if Cube(8) != (Dims{8, 8, 8}) {
		t.Errorf("Cube = %v", Cube(8))
	}
	if d.String() != "4x5x6" {
		t.Errorf("String = %q", d.String())
	}
}

func TestRegion(t *testing.T) {
	r := Region{Org: [3]int{1, 2, 3}, Ext: Dims{2, 2, 2}}
	if r.End() != [3]int{3, 4, 5} {
		t.Errorf("End = %v", r.End())
	}
	if !r.Contains(1, 2, 3) || !r.Contains(2, 3, 4) {
		t.Error("Contains should include org and interior")
	}
	if r.Contains(3, 2, 3) || r.Contains(0, 2, 3) {
		t.Error("Contains should exclude end and outside")
	}
}

func TestAtSet(t *testing.T) {
	v := New(Dims{3, 4, 5})
	v.Set(2, 3, 4, 7.5)
	if got := v.At(2, 3, 4); got != 7.5 {
		t.Errorf("At = %v", got)
	}
	if got := v.At(0, 0, 0); got != 0 {
		t.Errorf("zero voxel = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	v := New(Dims{2, 2, 2})
	for i := range v.Data {
		v.Data[i] = float32(i)
	}
	lo, hi := v.MinMax()
	if lo != 0 || hi != 7 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	empty := &Volume{}
	if lo, hi := empty.MinMax(); lo != 0 || hi != 0 {
		t.Error("empty MinMax should be 0,0")
	}
}

func TestSampleAtVoxelCenters(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	v := randomVolume(r, Dims{5, 6, 7})
	// Sampling exactly at a voxel center must return the stored value.
	for i := 0; i < 50; i++ {
		x := r.Intn(5)
		y := r.Intn(6)
		z := r.Intn(7)
		got := v.Sample(float32(x)+0.5, float32(y)+0.5, float32(z)+0.5)
		want := v.At(x, y, z)
		if got != want {
			t.Fatalf("Sample at center (%d,%d,%d) = %v, want %v", x, y, z, got, want)
		}
	}
}

func TestSampleInterpolatesMidpoint(t *testing.T) {
	v := New(Dims{2, 1, 1})
	v.Set(0, 0, 0, 1)
	v.Set(1, 0, 0, 3)
	got := v.Sample(1.0, 0.5, 0.5) // midpoint between the two centers
	if got != 2 {
		t.Errorf("midpoint sample = %v, want 2", got)
	}
}

func TestSampleClampsAtEdges(t *testing.T) {
	v := New(Dims{2, 2, 2})
	v.Set(0, 0, 0, 5)
	if got := v.Sample(-10, -10, -10); got != 5 {
		t.Errorf("clamped sample = %v, want 5", got)
	}
	v.Set(1, 1, 1, 9)
	if got := v.Sample(100, 100, 100); got != 9 {
		t.Errorf("clamped sample = %v, want 9", got)
	}
}

// Property: trilinear samples are bounded by the volume's min/max (convex
// combination of corner values).
func TestSampleConvexityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	v := randomVolume(r, Dims{6, 5, 4})
	lo, hi := v.MinMax()
	f := func() bool {
		px := float32(r.Float64()*8 - 1)
		py := float32(r.Float64()*7 - 1)
		pz := float32(r.Float64()*6 - 1)
		s := v.Sample(px, py, pz)
		return s >= lo-1e-6 && s <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	s := NewSpace(Dims{128, 128, 256})
	p := vecOf(10, 60, 200)
	w := s.VoxelToWorld(p)
	back := s.WorldToVoxel(w)
	if d := back.Sub(p).Len(); d > 1e-3 {
		t.Errorf("round trip error %v", d)
	}
	// Largest axis spans exactly 1 world unit.
	b := s.Bounds()
	if sz := b.Size(); abs32(sz.Z-1) > 1e-6 {
		t.Errorf("largest axis span = %v, want 1", sz.Z)
	}
	if sz := b.Size(); abs32(sz.X-0.5) > 1e-6 {
		t.Errorf("x span = %v, want 0.5", sz.X)
	}
	// Centered at origin.
	if c := b.Center(); c.Len() > 1e-6 {
		t.Errorf("bounds center = %v, want origin", c)
	}
}

func TestVolumeSourceFill(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	v := randomVolume(r, Dims{6, 5, 4})
	src := NewVolumeSource(v, "test")
	reg := Region{Org: [3]int{1, 2, 1}, Ext: Dims{3, 2, 2}}
	dst := make([]float32, reg.Ext.Voxels())
	if err := src.Fill(reg, dst); err != nil {
		t.Fatal(err)
	}
	i := 0
	for z := 1; z < 3; z++ {
		for y := 2; y < 4; y++ {
			for x := 1; x < 4; x++ {
				if dst[i] != v.At(x, y, z) {
					t.Fatalf("fill mismatch at (%d,%d,%d)", x, y, z)
				}
				i++
			}
		}
	}
}

func TestFillRejectsBadRegion(t *testing.T) {
	v := New(Dims{4, 4, 4})
	src := NewVolumeSource(v, "test")
	bad := Region{Org: [3]int{2, 0, 0}, Ext: Dims{4, 4, 4}}
	if err := src.Fill(bad, make([]float32, bad.Ext.Voxels())); err == nil {
		t.Error("out-of-bounds region accepted")
	}
	ok := Region{Ext: Dims{4, 4, 4}}
	if err := src.Fill(ok, make([]float32, 3)); err == nil {
		t.Error("wrong dst length accepted")
	}
}

func TestFuncSourceMatchesField(t *testing.T) {
	f := func(x, y, z float64) float32 { return float32(x + 10*y + 100*z) }
	src := fieldSource("f", Dims{4, 4, 4}, f)
	v, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				want := f((float64(x)+0.5)/4, (float64(y)+0.5)/4, (float64(z)+0.5)/4)
				if got := v.At(x, y, z); got != want {
					t.Fatalf("voxel (%d,%d,%d) = %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
}

// Property: FuncSource region fills agree with full materialisation for
// random sub-regions — the out-of-core path reads the same data the
// in-core path would.
func TestFuncSourceRegionProperty(t *testing.T) {
	f := func(x, y, z float64) float32 { return float32(x*y + z) }
	d := Dims{8, 7, 6}
	src := fieldSource("f", d, f)
	full, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(43))
	prop := func() bool {
		org := [3]int{r.Intn(d.X), r.Intn(d.Y), r.Intn(d.Z)}
		ext := Dims{
			1 + r.Intn(d.X-org[0]),
			1 + r.Intn(d.Y-org[1]),
			1 + r.Intn(d.Z-org[2]),
		}
		reg := Region{Org: org, Ext: ext}
		dst := make([]float32, reg.Ext.Voxels())
		if err := src.Fill(reg, dst); err != nil {
			return false
		}
		i := 0
		e := reg.End()
		for z := org[2]; z < e[2]; z++ {
			for y := org[1]; y < e[1]; y++ {
				for x := org[0]; x < e[0]; x++ {
					if dst[i] != full.At(x, y, z) {
						return false
					}
					i++
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// fieldSource is a FuncSource over a per-voxel field, evaluated a row at
// a time the way FuncSource asks.
func fieldSource(tag string, d Dims, f func(x, y, z float64) float32) *FuncSource {
	return NewFuncSourceRows(tag, d, func(dst []float32, xs []float64, y, z float64) {
		for i, x := range xs {
			dst[i] = f(x, y, z)
		}
	})
}
