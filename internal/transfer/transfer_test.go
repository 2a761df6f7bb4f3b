package transfer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gvmr/internal/vec"
)

func TestFromPointsValidation(t *testing.T) {
	if _, err := FromPoints([]Point{{S: 0}}, 16); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FromPoints([]Point{{S: 0}, {S: 1}}, 1); err == nil {
		t.Error("table size 1 accepted")
	}
}

func TestLookupEndpoints(t *testing.T) {
	f, err := FromPoints([]Point{
		{S: 0, C: vec.New4(0, 0, 0, 0)},
		{S: 1, C: vec.New4(1, 1, 1, 1)},
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Lookup(0); got != (vec.V4{}) {
		t.Errorf("Lookup(0) = %v", got)
	}
	if got := f.Lookup(1); got != (vec.V4{X: 1, Y: 1, Z: 1, W: 1}) {
		t.Errorf("Lookup(1) = %v", got)
	}
	// Clamping outside the domain.
	if got := f.Lookup(-5); got != f.Lookup(0) {
		t.Errorf("Lookup(-5) = %v", got)
	}
	if got := f.Lookup(7); got != f.Lookup(1) {
		t.Errorf("Lookup(7) = %v", got)
	}
}

// TestLookupIsTotal: every float32 has a colour. NaN — which no comparison
// clamps and whose conversion to int is no index — is entry 0, like the
// scalars at and below the domain's low end; the rest of the line is
// clamped as ever.
func TestLookupIsTotal(t *testing.T) {
	f := SkullPreset().OpacityCorrected(0.5) // entry 0 is all zeros, the last is not
	n := len(f.Table)
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		s    float32
		want vec.V4
	}{
		{float32(math.NaN()), f.Table[0]},
		{-inf, f.Table[0]},
		{float32(math.Copysign(0, -1)), f.Table[0]},
		{0, f.Table[0]},
		{1, f.Table[n-1]},
		{inf, f.Table[n-1]},
	} {
		if got := f.Lookup(c.s); got != c.want {
			t.Errorf("Lookup(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	if got := f.Lookup(1e-40); got.W != 0 { // a denormal interpolates from entry 0 like any small scalar
		t.Errorf("Lookup(1e-40) = %v", got)
	}
}

func TestLookupLinearRamp(t *testing.T) {
	f, err := FromPoints([]Point{
		{S: 0, C: vec.New4(0, 0, 0, 0)},
		{S: 1, C: vec.New4(1, 0, 0, 1)},
	}, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float32{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := f.Lookup(s)
		if d := got.X - s; d > 0.01 || d < -0.01 {
			t.Errorf("ramp Lookup(%v).R = %v, want ≈%v", s, got.X, s)
		}
	}
}

func TestUnsortedPointsAreSorted(t *testing.T) {
	f, err := FromPoints([]Point{
		{S: 1, C: vec.New4(1, 1, 1, 1)},
		{S: 0, C: vec.New4(0, 0, 0, 0)},
		{S: 0.5, C: vec.New4(0.5, 0, 0, 0.5)},
	}, 128)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Lookup(0.5)
	if d := got.X - 0.5; d > 0.02 || d < -0.02 {
		t.Errorf("Lookup(0.5).R = %v, want ≈0.5", got.X)
	}
}

func TestMaxAlpha(t *testing.T) {
	f, err := FromPoints([]Point{
		{S: 0, C: vec.New4(0, 0, 0, 0)},
		{S: 1, C: vec.New4(1, 1, 1, 0.6)},
	}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MaxAlpha(); got != 0.6 {
		t.Errorf("MaxAlpha = %v, want 0.6", got)
	}
	empty := &Func{}
	if empty.MaxAlpha() != 0 {
		t.Error("empty MaxAlpha != 0")
	}
	if empty.Lookup(0.5) != (vec.V4{}) {
		t.Error("empty Lookup != zero")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"skull", "supernova", "plume"} {
		f, err := Preset(name)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
		}
		if f.MaxAlpha() <= 0.1 {
			t.Errorf("Preset(%q) nearly transparent (max alpha %v)", name, f.MaxAlpha())
		}
		// Empty space must be fully transparent so placeholder fragments
		// and early termination behave.
		if c := f.Lookup(0); c.W != 0 {
			t.Errorf("Preset(%q).Lookup(0).A = %v, want 0", name, c.W)
		}
	}
	if _, err := Preset("unknown"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// Property: Lookup output components always stay within the convex hull of
// the control-point components (monotone bounded interpolation).
func TestLookupBoundedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	f := func() bool {
		pts := []Point{
			{S: 0, C: vec.New4(r.Float64(), r.Float64(), r.Float64(), r.Float64())},
			{S: r.Float64()*0.8 + 0.1, C: vec.New4(r.Float64(), r.Float64(), r.Float64(), r.Float64())},
			{S: 1, C: vec.New4(r.Float64(), r.Float64(), r.Float64(), r.Float64())},
		}
		tf, err := FromPoints(pts, 64)
		if err != nil {
			return false
		}
		s := float32(r.Float64())
		c := tf.Lookup(s)
		lo := vec.V4{X: 2, Y: 2, Z: 2, W: 2}
		hi := vec.V4{X: -1, Y: -1, Z: -1, W: -1}
		for _, p := range pts {
			lo.X = min(lo.X, p.C.X)
			lo.Y = min(lo.Y, p.C.Y)
			lo.Z = min(lo.Z, p.C.Z)
			lo.W = min(lo.W, p.C.W)
			hi.X = max(hi.X, p.C.X)
			hi.Y = max(hi.Y, p.C.Y)
			hi.Z = max(hi.Z, p.C.Z)
			hi.W = max(hi.W, p.C.W)
		}
		const e = 1e-5
		return c.X >= lo.X-e && c.X <= hi.X+e &&
			c.Y >= lo.Y-e && c.Y <= hi.Y+e &&
			c.Z >= lo.Z-e && c.Z <= hi.Z+e &&
			c.W >= lo.W-e && c.W <= hi.W+e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOpacityCorrectedEquivalence bounds the difference between the
// precomputed table correction (correct alphas, then interpolate) and the
// exact per-sample correction (interpolate, then pow) the ray caster used
// to compute: both are piecewise-linear approximations of the same smooth
// curve, so they may only diverge within one table cell.
func TestOpacityCorrectedEquivalence(t *testing.T) {
	for _, name := range []string{"skull", "supernova", "plume"} {
		f, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []float32{0.25, 0.5, 2, 4} {
			corrected := f.OpacityCorrected(step)
			for i := 0; i <= 4096; i++ {
				s := float32(i) / 4096
				exact := 1 - float32(math.Pow(float64(1-f.Lookup(s).W), float64(step)))
				got := corrected.Lookup(s).W
				if d := math.Abs(float64(got - exact)); d > 0.01 {
					t.Fatalf("%s step %v at s=%v: corrected %v vs exact %v (|Δ|=%v)",
						name, step, s, got, exact, d)
				}
				// Empty space must stay exactly empty: the c.W > 0
				// contribution gate depends on it.
				if exact == 0 != (got == 0) {
					t.Fatalf("%s step %v at s=%v: zero-alpha preservation broken", name, step, s)
				}
			}
		}
	}
}
