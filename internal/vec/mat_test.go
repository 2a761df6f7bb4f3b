package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	id := Identity()
	v := New4(1, 2, 3, 4)
	if got := id.MulV(v); got != v {
		t.Errorf("I*v = %v, want %v", got, v)
	}
}

func TestRotations(t *testing.T) {
	ry := RotateY(math.Pi / 2)
	p := ry.MulPoint(New3(1, 0, 0))
	if !v3Approx(p, New3(0, 0, -1), 1e-6) {
		t.Errorf("RotateY(90°) of x-axis = %v, want (0,0,-1)", p)
	}
	p = ry.MulPoint(New3(0, 1, 0))
	if p != New3(0, 1, 0) {
		t.Errorf("RotateY(90°) of y-axis = %v, want (0,1,0)", p)
	}
}

// Property: rotating by a and then by b is rotating by a+b — successive
// transforms compose.
func TestMulAssociativityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		a, b := r.Float64()*6-3, r.Float64()*6-3
		v := genV3(r)
		lhs := RotateY(b).MulPoint(RotateY(a).MulPoint(v))
		rhs := RotateY(a + b).MulPoint(v)
		return v3Approx(lhs, rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: RotateY(-a) undoes RotateY(a), and the rotation keeps lengths.
func TestInverseProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func() bool {
		a := r.Float64() * 6
		v := genV3(r)
		rot := RotateY(a).MulPoint(v)
		back := RotateY(-a).MulPoint(rot)
		return v3Approx(back, v, 1e-4) && approx(rot.Len(), v.Len(), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
