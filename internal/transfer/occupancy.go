package transfer

import (
	"math/bits"
	"sync/atomic"
)

// This file implements the occupancy query behind empty-space skipping:
// "can any scalar in [lo, hi] map to nonzero opacity under this transfer
// function?" answered in O(1) by a sparse-table range-max over the alpha
// channel of the lookup table (DESIGN.md §8). The structure is built
// lazily, once per Func, and published through an atomic pointer so
// concurrent ray casters share one build without locking.

// rangeMax is a sparse table over the table's alpha channel: level k
// holds the max over windows of length 2^k, so any [i, j] range query is
// the max of two overlapping windows.
type rangeMax struct {
	levels [][]float32
}

func buildRangeMax(table []float32) *rangeMax {
	n := len(table)
	rm := &rangeMax{}
	if n == 0 {
		return rm
	}
	level := make([]float32, n)
	copy(level, table)
	rm.levels = append(rm.levels, level)
	for width := 2; width <= n; width *= 2 {
		prev := rm.levels[len(rm.levels)-1]
		next := make([]float32, n-width+1)
		for i := range next {
			next[i] = max(prev[i], prev[i+width/2])
		}
		rm.levels = append(rm.levels, next)
	}
	return rm
}

// query returns the max over entries [i, j] (inclusive); i <= j, both in
// range.
func (rm *rangeMax) query(i, j int) float32 {
	if span := j - i + 1; span > 1 {
		k := bits.Len(uint(span)) - 1 // floor(log2(span))
		lvl := rm.levels[k]
		return max(lvl[i], lvl[j-(1<<k)+1])
	}
	return rm.levels[0][i]
}

// alphaRange returns f's lazily-built alpha range-max table.
func (f *Func) alphaRange() *rangeMax {
	if rm := f.rmax.Load(); rm != nil {
		return rm
	}
	alphas := make([]float32, len(f.Table))
	for i, c := range f.Table {
		alphas[i] = c.W
	}
	rm := buildRangeMax(alphas)
	// Concurrent first calls may each build; the table is small and
	// deterministic, so last-writer-wins is harmless.
	f.rmax.Store(rm)
	return rm
}

// MaxAlphaInRange returns an upper bound on Lookup(s).W over every scalar
// s in [lo, hi] — exactly the max alpha of the table entries Lookup can
// touch for such s, including the entries a boundary scalar interpolates
// with and the clamped entries for ranges beyond [0, 1]. A zero return is
// therefore a proof: no sample whose value lies in [lo, hi] can
// contribute under this transfer function. The backing range-max table is
// built once per Func and costs O(1) per query, so ray casters may call
// this per macrocell.
func (f *Func) MaxAlphaInRange(lo, hi float32) float32 {
	n := len(f.Table)
	if n == 0 || hi < lo {
		return 0
	}
	if n == 1 {
		return f.Table[0].W
	}
	if lo-lo != 0 || hi-hi != 0 {
		// A NaN or Inf bound (no finite x has x−x != 0): samples there can
		// be NaN, which Lookup sends to entry 0, and an Inf is no index.
		lo, hi = 0, 1
	}
	// Mirror Lookup's entry addressing exactly (same float32 arithmetic):
	// for s in (0,1), Lookup interpolates entries int(s·(n-1)) and its
	// successor; multiplication by a positive constant and truncation are
	// both monotone, so the touched entries over [lo, hi] are bracketed by
	// the boundary scalars' entries. Clamped scalars touch entry 0 / n-1,
	// which the clamping below includes.
	i0 := 0
	if lo > 0 {
		i0 = int(lo * float32(n-1))
		if i0 > n-1 {
			i0 = n - 1
		}
	}
	i1 := n - 1
	if hi < 1 {
		pos := hi * float32(n-1)
		if pos < 0 {
			pos = 0
		}
		i1 = int(pos)
		if float32(i1) != pos {
			i1++ // fractional position: Lookup blends in the next entry
		}
		if i1 > n-1 {
			i1 = n - 1
		}
	}
	return f.alphaRange().query(i0, i1)
}

// atomicRangeMax is the published-once pointer type embedded in Func.
type atomicRangeMax = atomic.Pointer[rangeMax]
