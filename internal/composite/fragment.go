// Package composite implements ray fragments and the compositing algebra
// the paper's Reduce phase uses: per-pixel ascending-depth sort of partial
// ray results, front-to-back blending, and a final blend against the
// background. Fragment is the homogeneous 24-byte key-value pair the
// MapReduce restrictions in §3.1.1 require.
package composite

import (
	"math"
	"sort"

	"gvmr/internal/vec"
)

// Fragment is one partial ray result: the paper's key-value pair. The key
// is the pixel index (y*width + x); the value is the premultiplied RGBA
// contribution of the ray's traversal of one brick plus the entry depth
// used for compositing order. 24 bytes, fixed size for every emission.
type Fragment struct {
	Key   int32
	R     float32 // premultiplied by A
	G     float32
	B     float32
	A     float32
	Depth float32 // view-space depth at brick entry
}

// FragmentBytes is the modeled wire size of one fragment.
const FragmentBytes = 24

// placeholderDepth is the placeholder sentinel: a quiet NaN no real
// fragment can carry (entry depths come from finite ray/box arithmetic).
var placeholderDepth = float32(math.NaN())

// Placeholder returns the "nothing" value of the single-fragment adapter
// (render.CastPixel): the pixel's ray contributed nothing. The map path
// never carries one — there an empty fragment list says it, and the
// kernel charges the §3.1.1 place-holder record itself. The NaN depth is
// an explicit sentinel: being a placeholder is a statement about how the
// fragment was produced, not about its color, so a real fragment that
// happens to be fully transparent black is NOT a placeholder.
func Placeholder(key int32) Fragment {
	return Fragment{Key: key, Depth: placeholderDepth}
}

// IsPlaceholder reports whether f carries the placeholder sentinel.
func (f Fragment) IsPlaceholder() bool { return f.Depth != f.Depth }

// Color returns the fragment's premultiplied color as a V4.
func (f Fragment) Color() vec.V4 { return vec.V4{X: f.R, Y: f.G, Z: f.B, W: f.A} }

// Under composites the premultiplied color `back` underneath `front`
// (front-to-back accumulation): the fundamental operator of both the map
// kernel's in-brick accumulation and the reduce phase's fragment merge.
func Under(front, back vec.V4) vec.V4 {
	t := 1 - front.W
	return vec.V4{
		X: front.X + t*back.X,
		Y: front.Y + t*back.Y,
		Z: front.Z + t*back.Z,
		W: front.W + t*back.W,
	}
}

// insertionSortMax is the longest list SortByDepth insertion-sorts. A
// pixel's list holds one fragment per brick its ray crosses — a handful —
// but lists also arrive off the wire, so longer ones keep an O(n log n)
// sort rather than trusting the sender.
const insertionSortMax = 32

// SortByDepth orders fragments by ascending depth (stable, so equal-depth
// fragments keep emission order — determinism across runs). NaN depths,
// which can still arrive off the wire, sort after every real fragment:
// NaN would otherwise defeat the comparator's ordering and could leave
// real fragments unsorted across one.
//
// It runs once per pixel, so short lists are insertion-sorted in place:
// no closure, no reflection-built swapper, no allocation. A stable sort's
// output is unique, so the order is sort.SliceStable's.
func SortByDepth(frags []Fragment) {
	if len(frags) > insertionSortMax {
		sort.SliceStable(frags, func(i, j int) bool { return depthLess(frags[i].Depth, frags[j].Depth) })
		return
	}
	for i := 1; i < len(frags); i++ {
		f := frags[i]
		j := i
		for ; j > 0 && depthLess(f.Depth, frags[j-1].Depth); j-- {
			frags[j] = frags[j-1]
		}
		frags[j] = f
	}
}

// depthLess is SortByDepth's comparator: ascending depth with NaN after
// every real value.
func depthLess(a, b float32) bool {
	if a != a {
		return false
	}
	if b != b {
		return true
	}
	return a < b
}

// CompositePixel sorts the pixel's fragments by ascending depth, folds
// them front to back, and blends the result over an opaque background,
// exactly as §3.2 describes the reduce. The input slice is sorted in
// place. A zero-colour placeholder contributes nothing wherever it lands.
func CompositePixel(frags []Fragment, background vec.V4) vec.V4 {
	SortByDepth(frags)
	return CompositeSorted(frags, background)
}

// CompositeSorted folds already-sorted fragments front to back and blends
// the background.
func CompositeSorted(frags []Fragment, background vec.V4) vec.V4 {
	acc := vec.V4{}
	for _, f := range frags {
		acc = Under(acc, f.Color())
	}
	return Finalize(acc, background)
}

// Finalize blends an accumulated premultiplied color over an opaque
// background and returns an opaque display color.
func Finalize(acc vec.V4, background vec.V4) vec.V4 {
	t := 1 - acc.W
	return vec.V4{
		X: acc.X + t*background.X,
		Y: acc.Y + t*background.Y,
		Z: acc.Z + t*background.Z,
		W: 1,
	}
}

// FoldRange is the one reduce every frame runs (§3.1.1, §3.2): core.Render
// and a distributed coordinator over the whole image [0, W·H), a
// distributed reducer over its range [lo,hi). runs are the per-unit
// fragment lists in ascending unit order, emission order within each —
// the canonical order — and every key lies in [lo,hi). One counting pass
// groups the fragments by pixel key, order kept, and set receives each
// touched key once, ascending, with its fragments composited over bg.
// Because grouping is stable and the order canonical, the folded floats
// are independent of placement and arrival: the determinism the golden
// digests enforce.
func FoldRange(runs [][]Fragment, lo, hi int32, bg vec.V4, set func(int32, vec.V4)) {
	// pos[k+1] counts key lo+k; the prefix sum turns pos[k] into the
	// start of key lo+k's group and the scatter leaves it at the end.
	pos := make([]int32, hi-lo+1)
	n := 0
	for _, run := range runs {
		for i := range run {
			pos[run[i].Key-lo+1]++
		}
		n += len(run)
	}
	if n == 0 {
		return
	}
	for k := 1; k < len(pos); k++ {
		pos[k] += pos[k-1]
	}
	flat := make([]Fragment, n)
	for _, run := range runs {
		for _, f := range run {
			flat[pos[f.Key-lo]] = f
			pos[f.Key-lo]++
		}
	}
	start := int32(0)
	for k, end := range pos[:hi-lo] {
		if end > start {
			set(lo+int32(k), CompositePixel(flat[start:end], bg))
			start = end
		}
	}
}
