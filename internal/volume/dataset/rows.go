package dataset

import (
	"math"
	"sync"
)

// This file holds the row-batched evaluators for the three datasets: the
// volume.RowFiller implementations FuncSource.Fill uses, and the only
// way the datasets are evaluated. They hoist
// everything that is constant along an x-row (trig, per-ellipsoid terms,
// radial offsets), evaluate fbm noise incrementally across the lattice,
// replace math.Exp with the polynomial expNeg, and skip provably-empty
// voxels — together they make first-time materialisation of a dataset
// roughly an order of magnitude faster than per-voxel evaluation. The
// skull's evaluator also limits each ellipsoid to the x-span a row
// crosses it in and evaluates its membership only in the shell band of
// that span, bit-identical to evaluating every ellipsoid at every voxel
// of the row (TestSkullRowsBitIdentical).
//
// They are fast-math: results may differ from the exact per-voxel
// reference fields (SkullField, SupernovaField, PlumeField, kept in
// rows_test.go as the test's oracle) by up to fastFieldTolerance,
// and values the reference puts below zeroCutoff may be flushed to zero.
// TestRowsMatchReferenceFields enforces both bounds.

// fastFieldTolerance bounds |row-evaluated − reference| per voxel, except
// within fastFieldTolerance of PlumeField's 0.02 empty-space threshold,
// where the two paths may fall on different sides of the cut.
const fastFieldTolerance = 1e-4

// zeroCutoff is the magnitude below which the fast path may round a
// field value to exactly zero (far tails of the Gaussian falloffs).
const zeroCutoff = 1e-6

// shellW is the skull phantom's smooth-membership half-width (shared by
// the reference field and the row evaluator).
const shellW = 0.08

// rowScratch recycles per-row float64 buffers; Fill calls row evaluators
// from multiple goroutines, so scratch cannot be global mutable state.
var rowScratch = sync.Pool{New: func() any { return new([]float64) }}

func getScratch(n int) (*[]float64, []float64) {
	p := rowScratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p, (*p)[:n]
}

// ---- Skull ----

// ellipsoidFast is a skull ellipsoid with the per-evaluation constants
// (rotation trig, reciprocal squared axes, support bounds) precomputed
// once at package init instead of per voxel.
type ellipsoidFast struct {
	cx, cy, cz             float64
	invAx2, invAy2, invAz2 float64
	cos, sin               float64
	val                    float64
	// maxDy2/maxDz2 bound the squared y/z offsets of the q < 1+shellW
	// support, for whole-row ellipsoid rejection.
	maxDy2, maxDz2 float64
	// qa is the dx² coefficient of q along an x-row.
	qa float64
}

var skullFast = func() []ellipsoidFast {
	if len(skullEllipsoids) > maxSkullEllipsoids {
		panic("dataset: skull phantom outgrew SkullRows' fixed row-ellipsoid buffer")
	}
	out := make([]ellipsoidFast, len(skullEllipsoids))
	k := 1 + shellW
	for i, e := range skullEllipsoids {
		c, s := math.Cos(e.phi), math.Sin(e.phi)
		invAx2, invAy2 := 1/(e.ax*e.ax), 1/(e.ay*e.ay)
		out[i] = ellipsoidFast{
			cx: e.cx, cy: e.cy, cz: e.cz,
			invAx2: invAx2, invAy2: invAy2, invAz2: 1 / (e.az * e.az),
			cos: c, sin: s, val: e.val,
			// The rotated ellipse {q ≤ k} projects on y to
			// |dy| ≤ √k·√(ax²sin² + ay²cos²); z is unrotated.
			maxDy2: k * (e.ax*e.ax*s*s + e.ay*e.ay*c*c),
			maxDz2: k * e.az * e.az,
			qa:     c*c*invAx2 + s*s*invAy2,
		}
	}
	return out
}()

// maxSkullEllipsoids sizes SkullRows' per-row buffers: the phantom's ten
// ellipsoids.
const maxSkullEllipsoids = 10

// skullQMargin is how far SkullRows' x-spans reach past the shell in q:
// far above the rounding error of one voxel's q (≈1e-13 on this
// phantom), so a voxel outside a span has q ≥ 1+shellW and one inside an
// interior has q ≤ 1−shellW however its q rounds.
const skullQMargin = 1e-9

// skullRowEll is one ellipsoid that reaches an x-row: its y/z terms
// folded, and the voxel spans where its membership is not 0 ([s0, s1))
// and where it is surely 1 ([i0, i1), empty when i0 == i1).
type skullRowEll struct {
	cx, invAx2, invAy2 float64
	cos, sin           float64
	sdy, cdy, zq       float64
	val                float64
	s0, s1, i0, i1     int
}

// SkullRows is the row-batched SkullField. Along an x-row an ellipsoid's
// q is a quadratic in px, so per row it solves, for each ellipsoid whose
// support the row meets, the x-span where q < 1+shellW and the sure
// interior where q ≤ 1−shellW — the span widened and the interior shrunk
// by skullQMargin in q plus one voxel. It adds an ellipsoid's val over
// its interior without computing q, evaluates the exact per-voxel q only
// in the shell band between the two, and writes every segment that no
// shell band crosses as one clamped constant. Each voxel's sum keeps its
// terms in ellipsoid order and each term is the one a per-voxel test of
// every ellipsoid would add, so the output is bit-identical to that loop
// (TestSkullRowsBitIdentical). xs must ascend with each value
// within a quarter step of an even lattice, as Fill's voxel centres are
// (to rounding); the one voxel of widening covers the half step by
// which a value may then stray from the lattice SkullRows infers from
// the row's ends.
func SkullRows(dst []float32, xs []float64, y, z float64) {
	nx := len(xs)
	if nx == 0 {
		return
	}
	py := 2*y - 1
	pz := 2*z - 1
	// Voxel index of a row position px on the lattice through xs's ends,
	// kept within two voxels of the row so that it converts to an int.
	x0, perStep := xs[0], 1.0
	if nx > 1 {
		perStep = float64(nx-1) / (xs[nx-1] - xs[0])
	}
	index := func(px float64) float64 {
		return min(max(((px+1)*0.5-x0)*perStep, -2), float64(nx)+2)
	}
	var act [maxSkullEllipsoids]skullRowEll
	var cuts [2 + 4*maxSkullEllipsoids]int
	cuts[0], cuts[1] = 0, nx
	nc := 2
	n := 0
	for i := range skullFast {
		e := &skullFast[i]
		dz := pz - e.cz
		if dz*dz > e.maxDz2 {
			continue
		}
		dy := py - e.cy
		if dy*dy > e.maxDy2 {
			continue
		}
		r := skullRowEll{
			cx: e.cx, invAx2: e.invAx2, invAy2: e.invAy2,
			cos: e.cos, sin: e.sin,
			sdy: e.sin * dy, cdy: e.cos * dy,
			zq:  dz * dz * e.invAz2,
			val: e.val,
		}
		// q(dx) = qa·dx² + qb·dx + qc with dx = px − cx, minimal at dxv.
		qb := 2 * (r.cos*r.sdy*r.invAx2 - r.sin*r.cdy*r.invAy2)
		qc := r.sdy*r.sdy*r.invAx2 + r.cdy*r.cdy*r.invAy2 + r.zq
		dxv := -qb / (2 * e.qa)
		qmin := qc - qb*qb/(4*e.qa)
		kOut := 1 + shellW + skullQMargin
		if qmin >= kOut {
			continue
		}
		h := math.Sqrt((kOut - qmin) / e.qa)
		r.s0 = clampInt(int(math.Floor(index(e.cx+dxv-h))), 0, nx)
		r.s1 = clampInt(int(math.Ceil(index(e.cx+dxv+h)))+1, 0, nx)
		if r.s0 >= r.s1 {
			continue
		}
		r.i0, r.i1 = r.s0, r.s0
		if kIn := 1 - shellW - skullQMargin; qmin < kIn {
			h := math.Sqrt((kIn - qmin) / e.qa)
			i0 := clampInt(int(math.Ceil(index(e.cx+dxv-h)))+1, r.s0, r.s1)
			i1 := clampInt(int(math.Floor(index(e.cx+dxv+h))), r.s0, r.s1)
			if i0 < i1 {
				r.i0, r.i1 = i0, i1
			}
		}
		act[n] = r
		n++
		cuts[nc], cuts[nc+1], cuts[nc+2], cuts[nc+3] = r.s0, r.s1, r.i0, r.i1
		nc += 4
	}
	if n == 0 {
		zero32(dst)
		return
	}
	// Between consecutive cuts every ellipsoid is wholly outside, in its
	// shell band or in its interior.
	c := cuts[:nc]
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	var seg [maxSkullEllipsoids]int // act index, negated−1 for a shell band
	for k := 1; k < len(c); k++ {
		a, b := c[k-1], c[k]
		if a == b {
			continue
		}
		ns, shell := 0, false
		sum := 0.0
		for j := 0; j < n; j++ {
			e := &act[j]
			switch {
			case e.i0 <= a && b <= e.i1:
				seg[ns] = j
				sum += e.val
			case e.s0 <= a && b <= e.s1:
				seg[ns] = -j - 1
				shell = true
			default:
				continue
			}
			ns++
		}
		if !shell {
			// Stored, not scanned as zero32 scans: a row that reaches an
			// ellipsoid is written elsewhere, so its pages are touched.
			v := float32(min(max(sum, 0), 1))
			run := dst[a:b]
			for len(run) >= 4 {
				run[0], run[1], run[2], run[3] = v, v, v, v
				run = run[4:]
			}
			for i := range run {
				run[i] = v
			}
			continue
		}
		for i := a; i < b; i++ {
			px := 2*xs[i] - 1
			sum := 0.0
			for _, j := range seg[:ns] {
				if j >= 0 {
					sum += act[j].val
					continue
				}
				e := &act[-j-1]
				dx := px - e.cx
				rx := e.cos*dx + e.sdy
				ry := e.cdy - e.sin*dx
				q := rx*rx*e.invAx2 + ry*ry*e.invAy2 + e.zq
				switch {
				case q <= 1-shellW:
					sum += e.val
				case q < 1+shellW:
					t := (1 + shellW - q) / (2 * shellW)
					sum += e.val * t * t * (3 - 2*t)
				}
			}
			if sum < 0 {
				sum = 0
			}
			if sum > 1 {
				sum = 1
			}
			dst[i] = float32(sum)
		}
	}
}

// clampInt limits v to [lo, hi].
func clampInt(v, lo, hi int) int { return min(max(v, lo), hi) }

// ---- Supernova ----

// SupernovaRows is the row-batched SupernovaField: the two fbm fields are
// evaluated incrementally over the sub-row that can be non-empty (|p| ≤
// novaRMax — outside it every Gaussian term is below zeroCutoff), and the
// falloffs use expNeg.
func SupernovaRows(dst []float32, xs []float64, y, z float64) {
	py := 2*y - 1
	pz := 2*z - 1
	pyz2 := py*py + pz*pz
	// All three Gaussian terms are < zeroCutoff beyond this radius:
	// shell needs (r-0.71)/0.085 > 3.8, core r/0.16 > 3.8, filaments
	// (r-0.35)/0.22 > 3.8.
	const novaRMax = 1.19
	if pyz2 > novaRMax*novaRMax {
		zero32(dst)
		return
	}
	// |px| ≤ xmax bounds the candidate sub-row (px = 2x-1 increases with x).
	xmax := math.Sqrt(novaRMax*novaRMax - pyz2)
	i0, i1 := len(xs), -1
	for i, x := range xs {
		px := 2*x - 1
		if px >= -xmax {
			if px > xmax {
				break
			}
			if i < i0 {
				i0 = i
			}
			i1 = i
		}
	}
	if i1 < 0 {
		zero32(dst)
		return
	}
	zero32(dst[:i0])
	zero32(dst[i1+1:])
	m := i1 - i0 + 1
	pp, pxs := getScratch(m)
	pt, turb := getScratch(m)
	pf, fil := getScratch(m)
	for i := 0; i < m; i++ {
		pxs[i] = 2*xs[i0+i] - 1
	}
	fbmRow(turb, pxs, 4, 7, py*4+13, pz*4+29, 4, 0xA11CE)
	fbmRow(fil, pxs, 7, 3, py*7+5, pz*7+11, 3, 0xBEEF)
	const (
		invShell = 1 / 0.085
		invCore  = 1 / 0.16
		invFil   = 1 / 0.22
	)
	for i := 0; i < m; i++ {
		px := pxs[i]
		r := math.Sqrt(px*px + pyz2)
		shellR := 0.62 + 0.18*(turb[i]-0.5)
		shell := expNeg(sq((r - shellR) * invShell))
		core := 0.9 * expNeg(sq(r*invCore))
		f := 0.35 * expNeg(sq((r-0.35)*invFil)) * fil[i]
		v := 0.95*shell + core + f
		if v > 1 {
			v = 1
		}
		dst[i0+i] = float32(v)
	}
	rowScratch.Put(pp)
	rowScratch.Put(pt)
	rowScratch.Put(pf)
}

// ---- Plume ----

// PlumeRows is the row-batched PlumeField. The helical axis, width, trig
// and source-blob terms depend only on (y, z) and are hoisted per row; a
// first pass finds the sub-row that can clear the field's 0.02 empty-space
// threshold (everything outside is exactly 0 on both the fast and the
// reference path, keeping empty space bit-identical), and only that span
// pays for turbulence fbm and expNeg.
func PlumeRows(dst []float32, xs []float64, y, z float64) {
	h := z
	swirl := 5.5 * h
	sinS, cosS := math.Sincos(2 * math.Pi * swirl)
	axisX := 0.5 + 0.13*h*cosS
	axisY := 0.5 + 0.13*h*sinS
	dy := y - axisY
	dy2 := dy * dy
	width := 0.045 + 0.16*h
	invW2 := 1 / (width * width)
	hFall := 1 - 0.55*h
	const inv009 = 1 / 0.09
	const inv005 = 1 / 0.05
	// Source-blob exponent terms that are constant on the row.
	srcYZ := sq((y-0.5)*inv009) + sq(z*inv005)
	// Conservative cuts: density ≤ 1.45·hFall·exp(-u), src ≤ 0.8·exp(-us);
	// below densCut/srcCut density < 0.019 and src < 0.001, so v < 0.02
	// and the field's threshold zeroes the voxel on both paths. Inside the
	// span, src still contributes to non-empty voxels until it falls under
	// srcDropCut (0.8·e⁻¹⁶ ≈ 9e-8, below fastFieldTolerance).
	densCut := math.Log(1.45 * hFall / 0.019)
	const srcCut = 6.7 // ln(0.8/0.001)
	const srcDropCut = 16
	srcRow := srcYZ < srcCut
	srcCompute := srcYZ < srcDropCut
	i0, i1 := len(xs), -1
	for i, x := range xs {
		dx := x - axisX
		u := (dx*dx + dy2) * invW2
		if u < densCut || (srcRow && sq((x-0.5)*inv009)+srcYZ < srcCut) {
			if i < i0 {
				i0 = i
			}
			i1 = i
		}
	}
	if i1 < 0 {
		zero32(dst)
		return
	}
	zero32(dst[:i0])
	zero32(dst[i1+1:])
	m := i1 - i0 + 1
	pt, turb := getScratch(m)
	fbmRow(turb, xs[i0:i1+1], 9, 1, y*9+17, z*22+5, 4, 0x9D2C)
	for i := 0; i < m; i++ {
		x := xs[i0+i]
		dx := x - axisX
		u := (dx*dx + dy2) * invW2
		v := expNeg(u) * hFall * (0.55 + 0.9*turb[i])
		if srcCompute {
			v += 0.8 * expNeg(sq((x-0.5)*inv009)+srcYZ)
		}
		out := float32(0)
		if v >= 0.02 {
			if v > 1 {
				v = 1
			}
			out = float32(v)
		}
		dst[i0+i] = out
	}
	rowScratch.Put(pt)
}

// zero32 clears a float32 row segment. It scans before storing: row
// destinations are usually freshly allocated — already zero and still
// backed by the kernel's shared zero page — so skipping redundant stores
// avoids both the write pass and the page-allocation faults for empty
// space, which for the sparse plume is most of the volume. The scan reads
// eight voxels' bits at a time and stops at the first group holding a
// nonzero bit pattern; the remainder is cleared with stores.
func zero32(s []float32) {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8 : i+8]
		if math.Float32bits(w[0])|math.Float32bits(w[1])|math.Float32bits(w[2])|math.Float32bits(w[3])|
			math.Float32bits(w[4])|math.Float32bits(w[5])|math.Float32bits(w[6])|math.Float32bits(w[7]) != 0 {
			break
		}
	}
	for ; i < len(s); i++ {
		if math.Float32bits(s[i]) != 0 {
			break
		}
	}
	clear(s[i:])
}
