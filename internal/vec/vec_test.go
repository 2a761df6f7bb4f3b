package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func v3Approx(a, b V3, eps float32) bool {
	return approx(a.X, b.X, eps) && approx(a.Y, b.Y, eps) && approx(a.Z, b.Z, eps)
}

// genV3 draws a bounded random vector so float32 round-off stays predictable.
func genV3(r *rand.Rand) V3 {
	return New3(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
}

func TestAddSub(t *testing.T) {
	a := New3(1, 2, 3)
	b := New3(4, 5, 6)
	if got := a.Add(b); got != (V3{5, 7, 9}) {
		t.Errorf("Add = %v, want {5 7 9}", got)
	}
	if got := b.Sub(a); got != (V3{3, 3, 3}) {
		t.Errorf("Sub = %v, want {3 3 3}", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New3(1, 0, 0)
	y := New3(0, 1, 0)
	z := New3(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x dot y = %v, want 0", got)
	}
	if got := x.Dot(x); got != 1 {
		t.Errorf("x dot x = %v, want 1", got)
	}
}

func TestNorm(t *testing.T) {
	v := New3(3, 4, 0)
	n := v.Norm()
	if !approx(n.Len(), 1, 1e-6) {
		t.Errorf("Norm length = %v, want 1", n.Len())
	}
	zero := V3{}
	if zero.Norm() != zero {
		t.Errorf("Norm of zero vector should stay zero")
	}
}

func TestLerp(t *testing.T) {
	a := New3(0, 0, 0)
	b := New3(2, 4, 8)
	if got := a.Lerp(b, 0.5); got != (V3{1, 2, 4}) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want a", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want b", got)
	}
}

func TestMinMax(t *testing.T) {
	a := New3(1, 5, 3)
	b := New3(2, 4, 3)
	if got := a.Min(b); got != (V3{1, 4, 3}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != (V3{2, 5, 3}) {
		t.Errorf("Max = %v", got)
	}
}

// Property: cross product is orthogonal to both operands.
func TestCrossOrthogonalProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := genV3(r), genV3(r)
		c := a.Cross(b)
		// Tolerance scaled by magnitudes involved.
		tol := (a.Len()*b.Len() + 1) * 1e-4
		return approx(c.Dot(a), 0, tol) && approx(c.Dot(b), 0, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: dot product is commutative and bilinear in the first argument.
func TestDotBilinearProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b, c := genV3(r), genV3(r), genV3(r)
		lhs := a.Add(b).Dot(c)
		rhs := a.Dot(c) + b.Dot(c)
		return approx(lhs, rhs, 1e-2) && approx(a.Dot(b), b.Dot(a), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Lagrange identity |a×b|² = |a|²|b|² − (a·b)².
func TestCrossLagrangeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := genV3(r), genV3(r)
		c := a.Cross(b)
		lhs := float64(c.Dot(c))
		rhs := float64(a.Dot(a))*float64(b.Dot(b)) - float64(a.Dot(b))*float64(a.Dot(b))
		return math.Abs(lhs-rhs) <= 1e-2*(math.Abs(rhs)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestV4Ops(t *testing.T) {
	a := New4(1, 2, 3, 4)
	b := New4(4, 3, 2, 1)
	if got := a.Add(b); got != (V4{5, 5, 5, 5}) {
		t.Errorf("V4 Add = %v", got)
	}
	if got := a.Scale(2); got != (V4{2, 4, 6, 8}) {
		t.Errorf("V4 Scale = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (V4{2.5, 2.5, 2.5, 2.5}) {
		t.Errorf("V4 Lerp = %v", got)
	}
}
