package dataset

import (
	"math"
	"math/rand"
	"testing"

	"gvmr/internal/volume"
)

// TestRowsMatchReferenceFields is the fast-math equivalence contract: the
// row-batched evaluators must match the exact reference fields to within
// fastFieldTolerance everywhere, except that (a) reference values below
// zeroCutoff may be flushed to exactly zero, and (b) within the tolerance
// of PlumeField's 0.02 empty-space threshold the two paths may land on
// different sides of the cut.
func TestRowsMatchReferenceFields(t *testing.T) {
	cases := []struct {
		name string
		dims volume.Dims
	}{
		{Skull, volume.Cube(64)},
		{Supernova, volume.Cube(64)},
		{Plume, volume.Dims{X: 48, Y: 48, Z: 96}},
	}
	for _, c := range cases {
		src, err := New(c.name, c.dims)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := volume.Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := volume.Materialize(volume.NewFuncSourceRows(c.name+"-ref", c.dims, fieldRows(referenceFields[c.name])))
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		bad := 0
		for i := range ref.Data {
			r := float64(ref.Data[i])
			f := float64(fast.Data[i])
			d := math.Abs(r - f)
			if d <= fastFieldTolerance {
				continue
			}
			// Zero-flush exemption: tiny tails may become exactly 0.
			if f == 0 && r < zeroCutoff {
				continue
			}
			// Plume threshold-band exemption: one side of the 0.02 cut.
			if c.name == Plume && (f == 0 || r == 0) &&
				math.Abs(math.Max(r, f)-0.02) <= fastFieldTolerance {
				continue
			}
			bad++
			if d > worst {
				worst = d
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d voxels beyond tolerance %g (worst |Δ| = %g)",
				c.name, bad, fastFieldTolerance, worst)
		}
	}
}

// referenceFields maps each built-in dataset to its per-voxel reference.
var referenceFields = map[string]func(x, y, z float64) float32{
	Skull:     SkullField,
	Supernova: SupernovaField,
	Plume:     PlumeField,
}

// fieldRows evaluates a per-voxel field one x-row at a time, the shape
// volume.FuncSource asks for.
func fieldRows(f func(x, y, z float64) float32) volume.RowFiller {
	return func(dst []float32, xs []float64, y, z float64) {
		for i, x := range xs {
			dst[i] = f(x, y, z)
		}
	}
}

// SkullField is the per-voxel reference of SkullRows, the Skull dataset:
// a 3D Shepp-Logan head phantom. The ellipsoid boundaries fall off
// smoothly over a thin shell (a CT scan is band-limited, not binary),
// which also keeps gradient shading free of stairstep artifacts.
func SkullField(x, y, z float64) float32 {
	// Map [0,1]³ to [-1,1]³.
	px := 2*x - 1
	py := 2*y - 1
	pz := 2*z - 1
	sum := 0.0
	for i := range skullEllipsoids {
		e := &skullEllipsoids[i]
		dx := px - e.cx
		dy := py - e.cy
		dz := pz - e.cz
		c := math.Cos(e.phi)
		s := math.Sin(e.phi)
		rx := c*dx + s*dy
		ry := -s*dx + c*dy
		q := rx*rx/(e.ax*e.ax) + ry*ry/(e.ay*e.ay) + dz*dz/(e.az*e.az)
		// Smooth membership: 1 well inside, 0 well outside, C1 falloff
		// across q ∈ [1-w, 1+w].
		const w = shellW
		switch {
		case q <= 1-w:
			sum += e.val
		case q < 1+w:
			t := (1 + w - q) / (2 * w)
			sum += e.val * t * t * (3 - 2*t)
		}
	}
	if sum < 0 {
		sum = 0
	}
	if sum > 1 {
		sum = 1
	}
	return float32(sum)
}

// SupernovaField is the per-voxel reference of SupernovaRows, the
// Supernova dataset: a turbulent expanding shell with a hot core,
// modulated by fBm noise — the classic core-collapse remnant structure of
// the paper's supernova simulation frames.
func SupernovaField(x, y, z float64) float32 {
	px := 2*x - 1
	py := 2*y - 1
	pz := 2*z - 1
	r := math.Sqrt(px*px + py*py + pz*pz)
	// Turbulence distorts the shell radius so the surface is wispy.
	turb := fbm(px*4+7, py*4+13, pz*4+29, 4, 0xA11CE)
	shellR := 0.62 + 0.18*(turb-0.5)
	shell := math.Exp(-sq((r - shellR) / 0.085))
	core := 0.9 * math.Exp(-sq(r/0.16))
	// Filaments between core and shell.
	fil := 0.35 * math.Exp(-sq((r-0.35)/0.22)) * fbm(px*7+3, py*7+5, pz*7+11, 3, 0xBEEF)
	v := 0.95*shell + core + fil
	if v > 1 {
		v = 1
	}
	return float32(v)
}

// PlumeField is the per-voxel reference of PlumeRows, the Plume dataset:
// a buoyant helical plume rising through a tall domain (the paper stores
// it at 512×512×2048), with fBm turbulence that broadens with height.
func PlumeField(x, y, z float64) float32 {
	// z runs along the tall axis; plume axis precesses helically with z.
	h := z // height in [0,1]
	swirl := 5.5 * h
	axisX := 0.5 + 0.13*h*math.Cos(2*math.Pi*swirl)
	axisY := 0.5 + 0.13*h*math.Sin(2*math.Pi*swirl)
	dx := x - axisX
	dy := y - axisY
	radius := math.Sqrt(dx*dx + dy*dy)
	// The plume widens and thins as it rises.
	width := 0.045 + 0.16*h
	density := math.Exp(-sq(radius/width)) * (1.0 - 0.55*h)
	// Turbulent puffs.
	turb := fbm(x*9+1, y*9+17, z*22+5, 4, 0x9D2C)
	density *= 0.55 + 0.9*turb
	// Source blob at the bottom.
	src := 0.8 * math.Exp(-(sq((x-0.5)/0.09) + sq((y-0.5)/0.09) + sq(z/0.05)))
	v := density + src
	if v > 1 {
		v = 1
	}
	if v < 0.02 {
		v = 0 // keep empty space exactly empty so early termination bites
	}
	return float32(v)
}

// valueNoise is trilinearly interpolated lattice noise in [0,1).
func valueNoise(x, y, z float64, seed uint32) float64 {
	xf := math.Floor(x)
	yf := math.Floor(y)
	zf := math.Floor(z)
	fx := smooth(x - xf)
	fy := smooth(y - yf)
	fz := smooth(z - zf)
	xi, yi, zi := uint32(int64(xf)), uint32(int64(yf)), uint32(int64(zf))

	c000 := hash3(xi, yi, zi, seed)
	c100 := hash3(xi+1, yi, zi, seed)
	c010 := hash3(xi, yi+1, zi, seed)
	c110 := hash3(xi+1, yi+1, zi, seed)
	c001 := hash3(xi, yi, zi+1, seed)
	c101 := hash3(xi+1, yi, zi+1, seed)
	c011 := hash3(xi, yi+1, zi+1, seed)
	c111 := hash3(xi+1, yi+1, zi+1, seed)

	c00 := c000 + (c100-c000)*fx
	c10 := c010 + (c110-c010)*fx
	c01 := c001 + (c101-c001)*fx
	c11 := c011 + (c111-c011)*fx
	c0 := c00 + (c10-c00)*fy
	c1 := c01 + (c11-c01)*fy
	return c0 + (c1-c0)*fz
}

// fbm is fractal Brownian motion: `octaves` layers of value noise, each at
// double frequency and half amplitude, normalised to [0,1).
func fbm(x, y, z float64, octaves int, seed uint32) float64 {
	sum := 0.0
	amp := 0.5
	norm := 0.0
	for o := 0; o < octaves; o++ {
		sum += amp * valueNoise(x, y, z, seed+uint32(o)*101)
		norm += amp
		x, y, z = x*2.03, y*2.03, z*2.03
		amp *= 0.5
	}
	return sum / norm
}

// skullRowsReference is the plain row evaluator SkullRows must match bit
// for bit: every ellipsoid that survives the y/z test is evaluated at
// every x.
func skullRowsReference(dst []float32, xs []float64, y, z float64) {
	py := 2*y - 1
	pz := 2*z - 1
	type rowEll struct {
		cx, invAx2, invAy2 float64
		cos, sin           float64
		sdy, cdy, zq       float64
		val                float64
	}
	var act [maxSkullEllipsoids]rowEll
	n := 0
	for i := range skullFast {
		e := &skullFast[i]
		dz := pz - e.cz
		if dz*dz > e.maxDz2 {
			continue
		}
		dy := py - e.cy
		if dy*dy > e.maxDy2 {
			continue
		}
		act[n] = rowEll{
			cx: e.cx, invAx2: e.invAx2, invAy2: e.invAy2,
			cos: e.cos, sin: e.sin,
			sdy: e.sin * dy, cdy: e.cos * dy,
			zq:  dz * dz * e.invAz2,
			val: e.val,
		}
		n++
	}
	for i, x := range xs {
		px := 2*x - 1
		sum := 0.0
		for j := 0; j < n; j++ {
			e := &act[j]
			dx := px - e.cx
			rx := e.cos*dx + e.sdy
			ry := e.cdy - e.sin*dx
			q := rx*rx*e.invAx2 + ry*ry*e.invAy2 + e.zq
			switch {
			case q <= 1-shellW:
				sum += e.val
			case q < 1+shellW:
				t := (1 + shellW - q) / (2 * shellW)
				sum += e.val * t * t * (3 - 2*t)
			}
		}
		if sum < 0 {
			sum = 0
		}
		if sum > 1 {
			sum = 1
		}
		dst[i] = float32(sum)
	}
}

// TestSkullRowsBitIdentical holds SkullRows to skullRowsReference bit for
// bit: whole cubes from one voxel up to the 256³ the benchmark renders, a
// volume with unequal odd edges, and sub-regions off the origin (what
// FillBrick asks for when the staging cache is bypassed).
func TestSkullRowsBitIdentical(t *testing.T) {
	type fill struct {
		dims volume.Dims
		reg  volume.Region
	}
	whole := func(d volume.Dims) fill { return fill{d, volume.Region{Ext: d}} }
	var cases []fill
	for _, n := range []int{1, 2, 3, 17, 64, 144, 256} {
		if n == 256 && testing.Short() {
			continue
		}
		cases = append(cases, whole(volume.Cube(n)))
	}
	odd := volume.Dims{X: 300, Y: 97, Z: 211}
	cases = append(cases, whole(odd),
		fill{odd, volume.Region{Org: [3]int{37, 11, 60}, Ext: volume.Dims{X: 151, Y: 80, Z: 90}}},
		fill{volume.Cube(144), volume.Region{Org: [3]int{35, 70, 70}, Ext: volume.Cube(20)}},
		fill{volume.Cube(144), volume.Region{Org: [3]int{143, 0, 71}, Ext: volume.Dims{X: 1, Y: 144, Z: 2}}},
		fill{volume.Cube(64), volume.Region{Org: [3]int{5, 30, 31}, Ext: volume.Dims{X: 59, Y: 3, Z: 2}}},
	)
	// Rows through the head whose x positions stray from the lattice by up
	// to a quarter step, as the RowFiller contract allows.
	r := rand.New(rand.NewSource(43))
	for row := 0; row < 4000; row++ {
		n := 1 + r.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (float64(i) + 0.5 + (r.Float64()-0.5)/2) / float64(n)
		}
		y, z := 0.05+0.9*r.Float64(), 0.05+0.9*r.Float64()
		got, want := make([]float32, n), make([]float32, n)
		SkullRows(got, xs, y, z)
		skullRowsReference(want, xs, y, z)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("row y=%v z=%v over %d uneven xs, voxel %d: %v, want %v", y, z, n, i, got[i], want[i])
			}
		}
	}
	for _, c := range cases {
		fast := volume.NewFuncSourceRows("fast", c.dims, SkullRows)
		ref := volume.NewFuncSourceRows("ref", c.dims, skullRowsReference)
		got := make([]float32, c.reg.Ext.Voxels())
		want := make([]float32, len(got))
		if err := fast.Fill(c.reg, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.Fill(c.reg, want); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				e := c.reg.Ext
				t.Fatalf("%v region %+v voxel (%d,%d,%d): %v (%#x), want %v (%#x)", c.dims, c.reg,
					i%e.X, i/e.X%e.Y, i/(e.X*e.Y), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestFbmRowMatchesFbm pins the row-batched noise to the scalar reference.
func TestFbmRowMatchesFbm(t *testing.T) {
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = float64(i) / 256
	}
	out := make([]float64, len(xs))
	for _, tc := range []struct {
		ax, bx, y, z float64
		oct          int
		seed         uint32
	}{
		{9, 1, 17.3, 5.9, 4, 0x9D2C},
		{8, 3, -2.7, 28.1, 4, 0xA11CE},
		{14, -4, 4.2, 10.6, 3, 0xBEEF},
	} {
		fbmRow(out, xs, tc.ax, tc.bx, tc.y, tc.z, tc.oct, tc.seed)
		for i, x := range xs {
			want := fbm(tc.ax*x+tc.bx, tc.y, tc.z, tc.oct, tc.seed)
			if d := math.Abs(out[i] - want); d > 1e-12 {
				t.Fatalf("fbmRow(%v) at x=%v: %v vs %v (|Δ|=%g)", tc, x, out[i], want, d)
			}
		}
	}
}

// TestExpNegAccuracy bounds the polynomial exp against math.Exp over the
// exponent range the fields use.
func TestExpNegAccuracy(t *testing.T) {
	for u := 0.0; u < 200; u += 0.00973 {
		got := expNeg(u)
		want := math.Exp(-u)
		if want == 0 {
			if got != 0 {
				t.Fatalf("expNeg(%v) = %v, want 0", u, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-8 {
			t.Fatalf("expNeg(%v) relative error %g", u, rel)
		}
	}
	if expNeg(1000) != 0 {
		t.Error("expNeg should underflow to 0")
	}
	if got := expNeg(-1.5); math.Abs(got-math.Exp(1.5)) > 1e-9*math.Exp(1.5) {
		t.Errorf("expNeg(-1.5) = %v", got)
	}
}

// TestRowsOverwriteDirtyBuffers pins the Fill contract the lazy zero32
// relies on: filling a poisoned destination yields exactly the same
// bytes as filling a fresh one.
func TestRowsOverwriteDirtyBuffers(t *testing.T) {
	for _, name := range Names() {
		d := volume.Dims{X: 33, Y: 17, Z: 29}
		src, err := New(name, d)
		if err != nil {
			t.Fatal(err)
		}
		fresh := make([]float32, d.Voxels())
		if err := src.Fill(volume.Region{Ext: d}, fresh); err != nil {
			t.Fatal(err)
		}
		dirty := make([]float32, d.Voxels())
		for i := range dirty {
			dirty[i] = float32(i%7) - 3
		}
		if err := src.Fill(volume.Region{Ext: d}, dirty); err != nil {
			t.Fatal(err)
		}
		for i := range fresh {
			if fresh[i] != dirty[i] {
				t.Fatalf("%s voxel %d: dirty-buffer fill %v != fresh fill %v",
					name, i, dirty[i], fresh[i])
			}
		}
	}
}
