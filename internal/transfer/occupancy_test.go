package transfer

import (
	"math"
	"math/rand"
	"testing"

	"gvmr/internal/vec"
)

// randomFunc builds a table with structured alpha: runs of exact zeros
// (the empty space the query exists to find) interleaved with positive
// runs.
func randomFunc(r *rand.Rand, size int) *Func {
	table := make([]vec.V4, size)
	i := 0
	for i < size {
		run := 1 + r.Intn(8)
		zero := r.Intn(2) == 0
		for j := 0; j < run && i < size; j++ {
			a := float32(0)
			if !zero {
				a = r.Float32()
			}
			table[i] = vec.V4{X: r.Float32(), Y: r.Float32(), Z: r.Float32(), W: a}
			i++
		}
	}
	return &Func{Table: table}
}

// TestMaxAlphaInRangeSoundness is the contract the renderer relies on:
// for any scalar in [lo, hi], Lookup's alpha never exceeds
// MaxAlphaInRange(lo, hi) — in particular, a zero answer proves every
// such scalar is invisible. Checked against dense scans plus exact
// boundary and entry-aligned scalars, over random tables of several
// sizes and random (often out-of-[0,1]) ranges.
func TestMaxAlphaInRangeSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for _, size := range []int{2, 3, 16, 64, 256} {
		f := randomFunc(r, size)
		for trial := 0; trial < 300; trial++ {
			lo := r.Float32()*1.4 - 0.2
			hi := lo + r.Float32()*0.5
			bound := f.MaxAlphaInRange(lo, hi)
			check := func(s float32) {
				if s < lo || s > hi {
					return
				}
				if a := f.Lookup(s).W; a > bound {
					t.Fatalf("size %d: Lookup(%v).W = %v > MaxAlphaInRange(%v,%v) = %v",
						size, s, a, lo, hi, bound)
				}
			}
			check(lo)
			check(hi)
			for i := 0; i < 64; i++ {
				check(lo + (hi-lo)*float32(i)/63)
			}
			// Entry-aligned scalars are the interpolation breakpoints.
			for i := 0; i < size; i++ {
				check(float32(i) / float32(size-1))
			}
		}
	}
}

// TestMaxAlphaInRangeBruteForce pins the exact value: the max alpha over
// the table entries Lookup can touch for scalars in [lo, hi], computed
// here by the dumbest possible scan.
func TestMaxAlphaInRangeBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, size := range []int{2, 5, 64, 256} {
		f := randomFunc(r, size)
		n := size
		brute := func(lo, hi float32) float32 {
			i0 := 0
			if lo > 0 {
				i0 = min(int(lo*float32(n-1)), n-1)
			}
			i1 := n - 1
			if hi < 1 {
				pos := max(hi*float32(n-1), 0)
				i1 = int(pos)
				if float32(i1) != pos {
					i1++
				}
				i1 = min(i1, n-1)
			}
			var m float32
			for i := i0; i <= i1; i++ {
				if f.Table[i].W > m {
					m = f.Table[i].W
				}
			}
			return m
		}
		for trial := 0; trial < 2000; trial++ {
			lo := r.Float32()*1.4 - 0.2
			hi := lo + r.Float32()*0.6
			if got, want := f.MaxAlphaInRange(lo, hi), brute(lo, hi); got != want {
				t.Fatalf("size %d: MaxAlphaInRange(%v,%v) = %v, want %v", size, lo, hi, got, want)
			}
		}
	}
}

func TestMaxAlphaInRangeEdges(t *testing.T) {
	f := SkullPreset()
	if f.MaxAlphaInRange(0.5, 0.4) != 0 {
		t.Error("inverted range should report 0")
	}
	if f.MaxAlphaInRange(-2, -1) != f.Table[0].W {
		t.Error("fully-below range should clamp to entry 0")
	}
	if f.MaxAlphaInRange(2, 3) != f.Table[len(f.Table)-1].W {
		t.Error("fully-above range should clamp to the last entry")
	}
	if f.MaxAlphaInRange(-1, 2) != f.MaxAlpha() {
		t.Error("covering range should equal MaxAlpha")
	}
	// The skull preset is zero below S=0.12: a range strictly inside the
	// dead zone must report exactly 0 — that is the empty-space proof.
	if got := f.MaxAlphaInRange(0, 0.1); got != 0 {
		t.Errorf("dead-zone range reported %v, want 0", got)
	}
	// An exactly-zero scalar (empty air) is provably invisible even
	// though entry 1 may be nonzero under other presets.
	g := PlumePreset()
	if got := g.MaxAlphaInRange(0, 0); got != 0 {
		t.Errorf("plume zero-point range reported %v, want 0", got)
	}
	// A NaN or Inf bound: samples there can be NaN, which Lookup sends to
	// entry 0, so nothing narrower than the whole table bounds them (and an
	// Inf converted to an index used to panic).
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, r := range [][2]float32{{nan, nan}, {0.3, nan}, {nan, 0.3}, {inf, inf}, {-inf, 0.05}, {-inf, inf}} {
		if got := f.MaxAlphaInRange(r[0], r[1]); got != f.MaxAlpha() {
			t.Errorf("MaxAlphaInRange(%v, %v) = %v, want the table's max %v", r[0], r[1], got, f.MaxAlpha())
		}
	}
	empty := &Func{}
	if empty.MaxAlphaInRange(0, 1) != 0 {
		t.Error("empty table should report 0")
	}
	one := &Func{Table: []vec.V4{{W: 0.7}}}
	if one.MaxAlphaInRange(0.2, 0.3) != 0.7 {
		t.Error("single-entry table should report its alpha")
	}
}
