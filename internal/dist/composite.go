package dist

import (
	"gvmr/internal/composite"
	"gvmr/internal/vec"
)

// foldRange is the one reduce both topologies run (§3.1.1, §3.2): the
// coordinator over the whole image [0, W·H), a reducer over its range
// [lo,hi). runs are the per-unit fragment lists in ascending unit order,
// emission order within each — the canonical order, the in-process
// engine's layout — and every key lies in [lo,hi). One counting pass
// groups the fragments by pixel key, order kept, and set receives each
// touched key once, ascending, with its fragments composited over bg.
// Because grouping is stable and the order canonical, the folded floats
// are independent of placement and arrival: the determinism the golden
// digests enforce.
func foldRange(runs [][]composite.Fragment, lo, hi int32, bg vec.V4, set func(int32, vec.V4)) {
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
	flat := make([]composite.Fragment, n)
	for _, run := range runs {
		for _, f := range run {
			flat[pos[f.Key-lo]] = f
			pos[f.Key-lo]++
		}
	}
	start := int32(0)
	for k, end := range pos[:hi-lo] {
		if end > start {
			set(lo+int32(k), composite.CompositePixel(flat[start:end], bg))
			start = end
		}
	}
}
