package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAABBIntersectHit(t *testing.T) {
	box := AABB{Min: New3(0, 0, 0), Max: New3(1, 1, 1)}
	r := Ray{Origin: New3(-1, 0.5, 0.5), Dir: New3(1, 0, 0)}
	tn, tf, ok := box.Intersect(r)
	if !ok {
		t.Fatal("ray should hit the box")
	}
	if !approx(tn, 1, 1e-6) || !approx(tf, 2, 1e-6) {
		t.Errorf("interval = [%v, %v], want [1, 2]", tn, tf)
	}
}

func TestAABBIntersectMiss(t *testing.T) {
	box := AABB{Min: New3(0, 0, 0), Max: New3(1, 1, 1)}
	r := Ray{Origin: New3(-1, 2, 0.5), Dir: New3(1, 0, 0)}
	if _, _, ok := box.Intersect(r); ok {
		t.Error("ray parallel above the box should miss")
	}
	// Pointing away.
	r = Ray{Origin: New3(-1, 0.5, 0.5), Dir: New3(-1, 0, 0)}
	tn, tf, ok := box.Intersect(r)
	if ok && tf >= 0 {
		t.Errorf("ray pointing away reported forward hit [%v %v]", tn, tf)
	}
}

func TestAABBIntersectInside(t *testing.T) {
	box := AABB{Min: New3(0, 0, 0), Max: New3(1, 1, 1)}
	r := Ray{Origin: New3(0.5, 0.5, 0.5), Dir: New3(0, 0, 1)}
	tn, tf, ok := box.Intersect(r)
	if !ok {
		t.Fatal("ray from inside should hit")
	}
	if tn > 0 {
		t.Errorf("tNear = %v, want <= 0 for interior origin", tn)
	}
	if !approx(tf, 0.5, 1e-6) {
		t.Errorf("tFar = %v, want 0.5", tf)
	}
}

func TestAABBIntersectZeroDirComponent(t *testing.T) {
	box := AABB{Min: New3(0, 0, 0), Max: New3(1, 1, 1)}
	// Dir.Y == 0 and origin outside the Y slab: must miss.
	r := Ray{Origin: New3(0.5, 2, -1), Dir: New3(0, 0, 1)}
	if _, _, ok := box.Intersect(r); ok {
		t.Error("ray outside Y slab with Dir.Y=0 should miss")
	}
	// Dir.Y == 0 and origin inside the Y slab: must hit.
	r = Ray{Origin: New3(0.5, 0.5, -1), Dir: New3(0, 0, 1)}
	if _, _, ok := box.Intersect(r); !ok {
		t.Error("ray inside Y slab with Dir.Y=0 should hit")
	}
}

func TestAABBUnionContains(t *testing.T) {
	b := AABB{Min: New3(2, -1, 0), Max: New3(3, 0.5, 2)}
	seen := map[V3]bool{}
	for _, c := range b.Corners() {
		if seen[c] {
			t.Errorf("corner %v repeated", c)
		}
		seen[c] = true
		if !b.Contains(c) {
			t.Errorf("box does not contain its corner %v", c)
		}
	}
}

func TestAABBCenterSize(t *testing.T) {
	b := AABB{Min: New3(0, 2, 4), Max: New3(2, 4, 8)}
	if got := b.Center(); got != (V3{1, 3, 6}) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Size(); got != (V3{2, 2, 4}) {
		t.Errorf("Size = %v", got)
	}
}

// Property: points sampled inside the interval reported by Intersect lie
// inside (a slightly inflated) box, and tNear <= tFar always holds.
func TestIntersectIntervalProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	box := AABB{Min: New3(-1, -1, -1), Max: New3(1, 1, 1)}
	f := func() bool {
		ray := Ray{Origin: genV3(r), Dir: genV3(r).Norm()}
		if ray.Dir.Len() == 0 {
			return true
		}
		tn, tf, ok := box.Intersect(ray)
		if !ok {
			return true
		}
		if tn > tf {
			return false
		}
		inflated := AABB{Min: New3(-1.001, -1.001, -1.001), Max: New3(1.001, 1.001, 1.001)}
		mid := ray.At((tn + tf) / 2)
		return inflated.Contains(mid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: ray/box intersection is symmetric under box translation — moving
// both box and ray origin by the same offset preserves the interval.
func TestIntersectTranslationInvarianceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	f := func() bool {
		box := AABB{Min: New3(-1, -1, -1), Max: New3(1, 1, 1)}
		ray := Ray{Origin: genV3(r), Dir: genV3(r).Norm()}
		if ray.Dir.Len() == 0 {
			return true
		}
		off := genV3(r)
		boxT := AABB{Min: box.Min.Add(off), Max: box.Max.Add(off)}
		rayT := Ray{Origin: ray.Origin.Add(off), Dir: ray.Dir}
		tn1, tf1, ok1 := box.Intersect(ray)
		tn2, tf2, ok2 := boxT.Intersect(rayT)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return approx(tn1, tn2, 2e-3) && approx(tf1, tf2, 2e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
