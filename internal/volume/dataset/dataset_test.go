package dataset

import (
	"math"
	"testing"

	"gvmr/internal/volume"
)

func TestNewKnownDatasets(t *testing.T) {
	for _, name := range Names() {
		src, err := New(name, volume.Cube(16))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if src.Dims() != volume.Cube(16) {
			t.Errorf("%s dims = %v", name, src.Dims())
		}
	}
	if _, err := New("nope", volume.Cube(8)); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestPaperDims(t *testing.T) {
	if got := PaperDims(Skull, 256); got != volume.Cube(256) {
		t.Errorf("skull dims = %v", got)
	}
	if got := PaperDims(Plume, 1024); got != (volume.Dims{X: 512, Y: 512, Z: 2048}) {
		t.Errorf("plume dims = %v, want paper's 512x512x2048", got)
	}
}

func TestFieldsInRange(t *testing.T) {
	for name, f := range referenceFields {
		for i := 0; i < 2000; i++ {
			// Deterministic low-discrepancy sweep of the unit cube.
			x := math.Mod(float64(i)*0.754877666, 1)
			y := math.Mod(float64(i)*0.569840296, 1)
			z := math.Mod(float64(i)*0.362123197, 1)
			v := float64(f(x, y, z))
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s(%v,%v,%v) = %v out of [0,1]", name, x, y, z, v)
			}
		}
	}
}

func TestFieldsDeterministic(t *testing.T) {
	for _, name := range Names() {
		src1, _ := New(name, volume.Cube(8))
		src2, _ := New(name, volume.Cube(8))
		v1, err := volume.Materialize(src1)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := volume.Materialize(src2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v1.Data {
			if v1.Data[i] != v2.Data[i] {
				t.Fatalf("%s not deterministic at voxel %d", name, i)
			}
		}
	}
}

func TestFieldsNonTrivial(t *testing.T) {
	// Every dataset should have both empty and occupied space so early ray
	// termination and placeholder fragments are both exercised.
	for _, name := range Names() {
		src, _ := New(name, volume.Cube(32))
		v, err := volume.Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := v.MinMax()
		if hi <= lo {
			t.Errorf("%s is constant (%v..%v)", name, lo, hi)
		}
		var occupied, total int
		for _, s := range v.Data {
			if s > 0.05 {
				occupied++
			}
			total++
		}
		frac := float64(occupied) / float64(total)
		if frac < 0.01 || frac > 0.95 {
			t.Errorf("%s occupancy %.3f outside sane range", name, frac)
		}
	}
}

func TestSkullShellStructure(t *testing.T) {
	// Center of the skull phantom is inside the cavity: low value. A point
	// on the outer shell: high value. Far corner: empty.
	if v := SkullField(0.5, 0.5, 0.5); v > 0.5 {
		t.Errorf("skull center = %v, want cavity (<0.5)", v)
	}
	if v := SkullField(0.02, 0.02, 0.02); v != 0 {
		t.Errorf("skull corner = %v, want empty", v)
	}
	// Somewhere on the shell between cavity and outside along +x.
	found := false
	for x := 0.5; x < 1; x += 0.004 {
		if SkullField(x, 0.5, 0.5) >= 0.5 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no dense shell found along +x axis of skull phantom")
	}
}

func TestNoiseProperties(t *testing.T) {
	// Value noise is deterministic and in [0,1).
	a := valueNoise(1.3, 4.7, 2.2, 42)
	b := valueNoise(1.3, 4.7, 2.2, 42)
	if a != b {
		t.Error("valueNoise not deterministic")
	}
	if a < 0 || a >= 1 {
		t.Errorf("valueNoise out of range: %v", a)
	}
	// Different seeds decorrelate.
	c := valueNoise(1.3, 4.7, 2.2, 43)
	if a == c {
		t.Error("seed has no effect")
	}
	// fbm stays in [0,1).
	for i := 0; i < 100; i++ {
		v := fbm(float64(i)*0.37, float64(i)*0.11, float64(i)*0.71, 4, 7)
		if v < 0 || v >= 1 {
			t.Fatalf("fbm out of range: %v", v)
		}
	}
}
