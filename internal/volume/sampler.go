package volume

import "math"

// Tap is one axis of a trilinear fetch: the backing-array offsets of the
// two clamped corners along that axis (region origin and axis stride
// already folded in) and the interpolation weight between them. A tap
// depends on one coordinate only, so fetches that share a coordinate —
// the centre sample and the four gradient fetches displaced along the
// other two axes — share the tap instead of re-deriving it.
type Tap struct {
	Lo, Hi int
	W      float32
}

// tapAxis is what building a tap needs to know about one axis of a
// sampled region.
type tapAxis struct {
	org    float32 // subtracted from a position to make it region-local
	n      int     // region extent: corner indices clamp into [0, n-1]
	base   int     // region origin along the axis in the backing array
	stride int     // backing-array stride of the axis
}

func (a *tapAxis) tap(p float32) Tap {
	q := float64(p-a.org) - 0.5
	fl := math.Floor(q)
	i := int(fl)
	// Corner indices i and i+1 clamp into [0, n-1]: clamp-to-edge.
	return Tap{
		Lo: (min(max(i, 0), a.n-1) + a.base) * a.stride,
		Hi: (min(max(i+1, 0), a.n-1) + a.base) * a.stride,
		W:  float32(q - fl),
	}
}

// Sampler trilinearly samples a region of a dense x-fastest array with
// clamp-to-edge addressing (CUDA's texture clamp mode): a whole volume, a
// brick's copied ghost region, or a brick's ghost region viewed in place
// inside the full volume. The weight and clamping arithmetic depends only
// on the region's extent and origin, never on the backing — only the
// final offsets fold in the backing's origin and strides — so view-backed
// bricks are bit-identical to copy-backed ones. A Sampler is immutable
// once built and safe for concurrent use.
type Sampler struct {
	data []float32
	ax   [3]tapAxis
}

// newSampler samples region r — given in the coordinates positions arrive
// in — of an array laid out with dims full, in which r's first voxel sits
// at index at.
func newSampler(data []float32, full Dims, r Region, at [3]int) *Sampler {
	s := &Sampler{data: data}
	ext := [3]int{r.Ext.X, r.Ext.Y, r.Ext.Z}
	stride := [3]int{1, full.X, full.X * full.Y}
	for a := range s.ax {
		s.ax[a] = tapAxis{org: float32(r.Org[a]), n: ext[a], base: at[a], stride: stride[a]}
	}
	return s
}

// TapX builds the x-axis tap for the position coordinate px.
func (s *Sampler) TapX(px float32) Tap { return s.ax[0].tap(px) }

// TapY builds the y-axis tap for the position coordinate py.
func (s *Sampler) TapY(py float32) Tap { return s.ax[1].tap(py) }

// TapZ builds the z-axis tap for the position coordinate pz.
func (s *Sampler) TapZ(pz float32) Tap { return s.ax[2].tap(pz) }

func lerp(a, b, w float32) float32 { return a + (b-a)*w }

// bilerp interpolates the four corners the x and y taps select in the
// z-slab at offset z: x first, then y.
func bilerp(d []float32, z int, tx, ty Tap) float32 {
	return lerp(
		lerp(d[z+ty.Lo+tx.Lo], d[z+ty.Lo+tx.Hi], tx.W),
		lerp(d[z+ty.Hi+tx.Lo], d[z+ty.Hi+tx.Hi], tx.W),
		ty.W)
}

// Fetch interpolates the eight corners the three taps select: x first,
// then y, then z.
func (s *Sampler) Fetch(tx, ty, tz Tap) float32 {
	return lerp(bilerp(s.data, tz.Lo, tx, ty), bilerp(s.data, tz.Hi, tx, ty), tz.W)
}

// Gradient returns the central difference of the field over one voxel to
// either side of the position (px,py,pz) whose own taps are tx, ty, tz:
// six fetches. A fetch displaced along one axis shares the other two
// coordinates with the position exactly, so it reuses their taps; only
// the displaced axis — its coordinate formed in float32 before the tap
// subtracts the region origin — is set up again. The fetches are written
// out rather than six Fetch calls: Fetch is past the inlining budget, and
// a call per fetch spills every live tap around it.
func (s *Sampler) Gradient(px, py, pz float32, tx, ty, tz Tap) (gx, gy, gz float32) {
	const h = 1.0 // one-voxel stencil
	d := s.data
	xp, xm := s.TapX(px+h), s.TapX(px-h)
	yp, ym := s.TapY(py+h), s.TapY(py-h)
	zp, zm := s.TapZ(pz+h), s.TapZ(pz-h)
	gx = lerp(bilerp(d, tz.Lo, xp, ty), bilerp(d, tz.Hi, xp, ty), tz.W) -
		lerp(bilerp(d, tz.Lo, xm, ty), bilerp(d, tz.Hi, xm, ty), tz.W)
	gy = lerp(bilerp(d, tz.Lo, tx, yp), bilerp(d, tz.Hi, tx, yp), tz.W) -
		lerp(bilerp(d, tz.Lo, tx, ym), bilerp(d, tz.Hi, tx, ym), tz.W)
	gz = lerp(bilerp(d, zp.Lo, tx, ty), bilerp(d, zp.Hi, tx, ty), zp.W) -
		lerp(bilerp(d, zm.Lo, tx, ty), bilerp(d, zm.Hi, tx, ty), zm.W)
	return gx, gy, gz
}

// Sample is the three taps and the fetch for one position.
func (s *Sampler) Sample(px, py, pz float32) float32 {
	return s.Fetch(s.TapX(px), s.TapY(py), s.TapZ(pz))
}
