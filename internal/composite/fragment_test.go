package composite

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gvmr/internal/vec"
)

func approx4(a, b vec.V4, eps float32) bool {
	d := func(x, y float32) bool {
		v := x - y
		if v < 0 {
			v = -v
		}
		return v <= eps
	}
	return d(a.X, b.X) && d(a.Y, b.Y) && d(a.Z, b.Z) && d(a.W, b.W)
}

func randFrag(r *rand.Rand, key int32) Fragment {
	a := float32(r.Float64())
	return Fragment{
		Key:   key,
		R:     float32(r.Float64()) * a, // premultiplied: channel <= alpha
		G:     float32(r.Float64()) * a,
		B:     float32(r.Float64()) * a,
		A:     a,
		Depth: float32(r.Float64() * 10),
	}
}

func TestPlaceholder(t *testing.T) {
	p := Placeholder(42)
	if p.Key != 42 {
		t.Errorf("key = %d", p.Key)
	}
	if !p.IsPlaceholder() {
		t.Error("placeholder not recognised")
	}
	if !math.IsNaN(float64(p.Depth)) {
		t.Errorf("placeholder depth = %v, want the NaN sentinel", p.Depth)
	}
	f := Fragment{A: 0.5}
	if f.IsPlaceholder() {
		t.Error("real fragment recognised as placeholder")
	}
}

// Regression: a genuine fully-transparent black fragment is NOT a
// placeholder — the sentinel is the NaN depth, not the color. Before the
// sentinel existed, IsPlaceholder classified any zero-color fragment as a
// placeholder, so such a fragment would have been dropped at partition
// time instead of surviving to the reducer.
func TestTransparentBlackFragmentIsNotPlaceholder(t *testing.T) {
	f := Fragment{Key: 9, Depth: 1.5} // zero color, real depth
	if f.IsPlaceholder() {
		t.Fatal("transparent-black fragment classified as placeholder")
	}
	// It must also survive compositing untouched: inserting it anywhere
	// leaves the pixel exactly as it was (the zero color is the identity
	// of Under), rather than being filtered out.
	bg := vec.V4{X: 0.2, Y: 0.4, Z: 0.6, W: 1}
	real := Fragment{Key: 9, R: 0.3, G: 0.2, B: 0.1, A: 0.4, Depth: 2}
	want := CompositePixel([]Fragment{real}, bg)
	got := CompositePixel([]Fragment{{Key: 9, Depth: 1.5}, real, {Key: 9, Depth: 3}}, bg)
	if got != want {
		t.Errorf("transparent-black fragment changed the composite: %v != %v", got, want)
	}
}

func TestUnderOpaqueFrontWins(t *testing.T) {
	front := vec.V4{X: 1, Y: 0, Z: 0, W: 1} // opaque red
	back := vec.V4{X: 0, Y: 1, Z: 0, W: 1}  // opaque green
	got := Under(front, back)
	if got != front {
		t.Errorf("opaque front should win, got %v", got)
	}
}

func TestUnderTransparentFrontPassesThrough(t *testing.T) {
	front := vec.V4{}
	back := vec.V4{X: 0, Y: 0.5, Z: 0, W: 0.5}
	got := Under(front, back)
	if got != back {
		t.Errorf("transparent front should pass back through, got %v", got)
	}
}

func TestUnderHalfAlpha(t *testing.T) {
	front := vec.V4{X: 0.5, Y: 0, Z: 0, W: 0.5} // premult half red
	back := vec.V4{X: 0, Y: 1, Z: 0, W: 1}      // opaque green
	got := Under(front, back)
	want := vec.V4{X: 0.5, Y: 0.5, Z: 0, W: 1}
	if !approx4(got, want, 1e-6) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// Property: Under is associative — the algebraic fact that lets partial ray
// fragments be composited per brick and then merged (the whole point of
// the paper's map/reduce split).
func TestUnderAssociativityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	f := func() bool {
		a := randFrag(r, 0).Color()
		b := randFrag(r, 0).Color()
		c := randFrag(r, 0).Color()
		lhs := Under(Under(a, b), c)
		rhs := Under(a, Under(b, c))
		return approx4(lhs, rhs, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the zero color is the identity of Under on both sides.
func TestUnderIdentityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	f := func() bool {
		a := randFrag(r, 0).Color()
		return approx4(Under(a, vec.V4{}), a, 1e-7) && approx4(Under(vec.V4{}, a), a, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSortByDepth(t *testing.T) {
	frags := []Fragment{
		{Key: 1, Depth: 3},
		{Key: 2, Depth: 1},
		{Key: 3, Depth: 2},
	}
	SortByDepth(frags)
	for i := 1; i < len(frags); i++ {
		if frags[i].Depth < frags[i-1].Depth {
			t.Fatalf("not sorted: %v", frags)
		}
	}
	if frags[0].Key != 2 || frags[2].Key != 1 {
		t.Errorf("sorted order wrong: %v", frags)
	}
}

// A stable sort's output is unique, so SortByDepth's in-place insertion
// sort (and its long-list fallback) must order every list exactly as
// sort.SliceStable with the same comparator does — depth ties keep
// emission order, NaN placeholders go last in emission order.
func TestSortByDepthMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(12)
		if trial%10 == 0 {
			n = r.Intn(4 * insertionSortMax) // both sides of the cut-over
		}
		frags := make([]Fragment, n)
		for i := range frags {
			// Key records emission order; few distinct depths force ties.
			frags[i] = Fragment{Key: int32(i), Depth: float32(r.Intn(5))}
			if r.Intn(4) == 0 {
				frags[i].Depth = float32(math.NaN())
			}
		}
		want := append([]Fragment(nil), frags...)
		sort.SliceStable(want, func(i, j int) bool { return depthLess(want[i].Depth, want[j].Depth) })
		SortByDepth(frags)
		for i := range frags {
			if frags[i].Key != want[i].Key {
				t.Fatalf("n=%d: position %d holds emission #%d, sort.SliceStable puts #%d there", n, i, frags[i].Key, want[i].Key)
			}
		}
	}
}

func TestSortByDepthDoesNotAllocate(t *testing.T) {
	frags := []Fragment{{Depth: 3}, {Depth: 1}, {Depth: float32(math.NaN())}, {Depth: 2}, {Depth: 1}}
	work := make([]Fragment, len(frags))
	if n := testing.AllocsPerRun(100, func() {
		copy(work, frags)
		SortByDepth(work)
	}); n != 0 {
		t.Errorf("SortByDepth allocated %v times per pixel list", n)
	}
}

// Property: CompositePixel is invariant under permutation of its input —
// fragments from different GPUs arrive unsorted in any order and the sort
// must make the result canonical (with distinct depths).
func TestCompositeOrderInvarianceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	bg := vec.V4{X: 0.1, Y: 0.1, Z: 0.3, W: 1}
	f := func() bool {
		n := 1 + r.Intn(6)
		frags := make([]Fragment, n)
		for i := range frags {
			frags[i] = randFrag(r, 7)
			frags[i].Depth = float32(i) + float32(r.Float64())*0.5 // distinct
		}
		want := CompositePixel(append([]Fragment(nil), frags...), bg)
		for trial := 0; trial < 4; trial++ {
			shuf := append([]Fragment(nil), frags...)
			r.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
			got := CompositePixel(shuf, bg)
			if !approx4(got, want, 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: inserting placeholders anywhere — including ahead of
// unsorted real fragments, where a naive comparator would let the NaN
// sentinel block the depth sort — never changes the composited result.
// The "later-discarded place holder" restriction is sound.
func TestPlaceholderNeutralProperty(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	bg := vec.V4{X: 0.2, Y: 0, Z: 0, W: 1}
	f := func() bool {
		n := r.Intn(5)
		frags := make([]Fragment, 0, n+2)
		for i := 0; i < n; i++ {
			fr := randFrag(r, 3)
			fr.Depth = float32(i)
			frags = append(frags, fr)
		}
		want := CompositePixel(append([]Fragment(nil), frags...), bg)
		ph := Placeholder(3)
		withPH := append([]Fragment{ph}, frags...)
		withPH = append(withPH, ph)
		r.Shuffle(len(withPH), func(i, j int) { withPH[i], withPH[j] = withPH[j], withPH[i] })
		got := CompositePixel(withPH, bg)
		return approx4(got, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompositeEmptyIsBackground(t *testing.T) {
	bg := vec.V4{X: 0.3, Y: 0.4, Z: 0.5, W: 1}
	got := CompositePixel(nil, bg)
	want := vec.V4{X: 0.3, Y: 0.4, Z: 0.5, W: 1}
	if !approx4(got, want, 1e-7) {
		t.Errorf("empty composite = %v, want background", got)
	}
}

func TestCompositeOpaqueFrontHidesBackground(t *testing.T) {
	bg := vec.V4{X: 1, Y: 1, Z: 1, W: 1}
	frags := []Fragment{{Key: 0, R: 0, G: 0, B: 1, A: 1, Depth: 1}}
	got := CompositePixel(frags, bg)
	want := vec.V4{X: 0, Y: 0, Z: 1, W: 1}
	if !approx4(got, want, 1e-6) {
		t.Errorf("got %v, want opaque blue", got)
	}
}

// Property: splitting a sorted fragment list at any point, compositing the
// two halves separately (without background) and merging the partial
// results equals compositing the whole list — the direct-send invariant.
func TestSplitMergeEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	bg := vec.V4{X: 0.05, Y: 0.05, Z: 0.05, W: 1}
	f := func() bool {
		n := 2 + r.Intn(6)
		frags := make([]Fragment, n)
		for i := range frags {
			frags[i] = randFrag(r, 0)
			frags[i].Depth = float32(i)
		}
		whole := CompositeSorted(frags, bg)
		cut := 1 + r.Intn(n-1)
		accA := vec.V4{}
		for _, fr := range frags[:cut] {
			accA = Under(accA, fr.Color())
		}
		accB := vec.V4{}
		for _, fr := range frags[cut:] {
			accB = Under(accB, fr.Color())
		}
		merged := Finalize(Under(accA, accB), bg)
		return approx4(whole, merged, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
