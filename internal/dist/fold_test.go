package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/vec"
)

// Differential check of the one range fold against the two folds it
// replaced, kept here as test-only copies: the coordinator's streamed
// (shard, brick) buckets with their counting sort, and the exchange's
// one bucket per touched pixel. Generated stripes carry empty units,
// repeated keys, tied depths and NaN colour bits; generated ranges
// include empty ones and the full image. Image bits and sparse range
// bits must match exactly.

// oldStream is the coordinator-local reduce before composite.FoldRange, fed one
// stripe per unit in arrival order.
type oldStream struct {
	width, height int
	bg            vec.V4
	part          mapreduce.Partitioner
	reducers      int

	shards []map[int][]composite.Fragment // shard → brick → fragments, emission order
}

func newOldStream(width, height int, bg vec.V4, reducers int) *oldStream {
	sc := &oldStream{
		width: width, height: height, bg: bg,
		part: mapreduce.RoundRobin{}, reducers: reducers,
		shards: make([]map[int][]composite.Fragment, reducers),
	}
	for r := range sc.shards {
		sc.shards[r] = map[int][]composite.Fragment{}
	}
	return sc
}

func (sc *oldStream) add(s core.BrickStripe) {
	for _, f := range s.Frags {
		r := sc.part.Partition(f.Key, sc.reducers)
		sc.shards[r][s.Brick] = append(sc.shards[r][s.Brick], f)
	}
}

// finish folds the shards one after another; the original fanned them
// out over a worker pool, which cannot matter — shards hold disjoint
// pixel keys.
func (sc *oldStream) finish() *img.Image {
	out := img.New(sc.width, sc.height, composite.Finalize(composite.Fragment{}.Color(), sc.bg))
	keyRange := int32(sc.width * sc.height)
	for _, m := range sc.shards {
		if len(m) == 0 {
			continue
		}
		ids := make([]int, 0, len(m))
		n := 0
		for id, frags := range m {
			ids = append(ids, id)
			n += len(frags)
		}
		sort.Ints(ids)
		shard := make([]mapreduce.KV[composite.Fragment], 0, n)
		for _, id := range ids {
			for _, f := range m[id] {
				shard = append(shard, mapreduce.KV[composite.Fragment]{Key: f.Key, Val: f})
			}
		}
		keys, groups := mapreduce.CountingSort(shard, keyRange)
		for i, k := range keys {
			out.SetKey(k, composite.CompositePixel(groups[i], sc.bg))
		}
	}
	return out
}

// oldCompositeRange is the exchange's range fold before composite.FoldRange.
func oldCompositeRange(runs [][]composite.Fragment, lo, hi int32, bg vec.V4) (frags []composite.Fragment) {
	buckets := make([][]composite.Fragment, hi-lo)
	touched := 0
	for _, run := range runs {
		for _, f := range run {
			i := f.Key - lo
			if buckets[i] == nil {
				touched++
			}
			buckets[i] = append(buckets[i], f)
		}
	}
	frags = make([]composite.Fragment, 0, touched)
	for i, b := range buckets {
		if b == nil {
			continue
		}
		c := composite.CompositePixel(b, bg)
		frags = append(frags, composite.Fragment{Key: lo + int32(i), R: c.X, G: c.Y, B: c.Z, A: c.W})
	}
	return frags
}

// genRuns draws numUnits fragment runs with keys in [lo,hi): some units
// empty, keys from a small pool so pixels repeat, depths from three
// values so they tie, and now and then a NaN colour channel.
func genRuns(rng *rand.Rand, numUnits int, lo, hi int32) [][]composite.Fragment {
	runs := make([][]composite.Fragment, numUnits)
	if hi == lo {
		return runs
	}
	pool := make([]int32, 1+rng.Intn(8))
	for i := range pool {
		pool[i] = lo + rng.Int31n(hi-lo)
	}
	for u := range runs {
		if rng.Intn(4) == 0 {
			continue
		}
		for n := rng.Intn(12); n > 0; n-- {
			f := composite.Fragment{
				Key: pool[rng.Intn(len(pool))],
				R:   rng.Float32(), G: rng.Float32(), B: rng.Float32(), A: rng.Float32(),
				Depth: float32(1+rng.Intn(3)) / 2,
			}
			if rng.Intn(8) == 0 {
				f.G = math.Float32frombits(0x7fc00000 | rng.Uint32()&0x3fffff)
			}
			runs[u] = append(runs[u], f)
		}
	}
	return runs
}

func bitsEqual(a, b vec.V4) bool {
	return math.Float32bits(a.X) == math.Float32bits(b.X) && math.Float32bits(a.Y) == math.Float32bits(b.Y) &&
		math.Float32bits(a.Z) == math.Float32bits(b.Z) && math.Float32bits(a.W) == math.Float32bits(b.W)
}

// cloneRuns deep-copies runs: CompositePixel sorts its input in place,
// and each fold under comparison must see the generated order.
func cloneRuns(runs [][]composite.Fragment) [][]composite.Fragment {
	out := make([][]composite.Fragment, len(runs))
	for i, r := range runs {
		out[i] = append([]composite.Fragment(nil), r...)
	}
	return out
}

// TestFoldRangeMatchesStreamedCompositeGenerated: over the full image,
// composite.FoldRange gives the old streamed reduce's image bits, whatever order
// the stripes arrived in.
func TestFoldRangeMatchesStreamedCompositeGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 400; trial++ {
		w, h := 1+rng.Intn(9), 1+rng.Intn(9)
		shards := 1 + rng.Intn(4)
		bg := vec.V4{X: rng.Float32(), Y: rng.Float32(), Z: rng.Float32(), W: 1}
		runs := genRuns(rng, 1+rng.Intn(6), 0, int32(w*h))

		old, oldRuns := newOldStream(w, h, bg, shards), cloneRuns(runs)
		for _, u := range rng.Perm(len(runs)) {
			old.add(core.BrickStripe{Brick: u, Frags: oldRuns[u]})
		}
		wantImg := old.finish()

		got := core.BlankImage(core.Options{Width: w, Height: h, Background: bg})
		composite.FoldRange(cloneRuns(runs), 0, int32(w*h), bg, got.SetKey)
		for k := range wantImg.Pix {
			if !bitsEqual(got.Pix[k], wantImg.Pix[k]) {
				t.Fatalf("trial %d: pixel %d is %v, old fold %v", trial, k, got.Pix[k], wantImg.Pix[k])
			}
		}
	}
}

// TestFoldRangeMatchesBucketRangeGenerated: over generated ranges —
// empty [lo,lo), the full image, and everything between — the
// exchange's compositeRange gives the old bucket fold's sparse pixels,
// bit for bit.
func TestFoldRangeMatchesBucketRangeGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 400; trial++ {
		pixels := int32(1 + rng.Intn(64))
		lo, hi := rng.Int31n(pixels+1), pixels
		switch trial % 4 {
		case 0:
			hi = lo
		case 1:
			lo = 0
		default:
			hi = lo + rng.Int31n(pixels-lo+1)
		}
		bg := vec.V4{X: rng.Float32(), Y: rng.Float32(), Z: rng.Float32(), W: 1}
		runs := genRuns(rng, 1+rng.Intn(6), lo, hi)
		want := oldCompositeRange(cloneRuns(runs), lo, hi, bg)

		s := &exchangeSession{lo: lo, hi: hi, bricks: map[int][]composite.Fragment{}}
		for u, r := range cloneRuns(runs) {
			s.bricks[u] = r
		}
		got := s.compositeRange(CollectRequest{Lo: lo, Hi: hi, Background: [4]float32{bg.X, bg.Y, bg.Z, bg.W}})
		if len(got) != len(want) {
			t.Fatalf("trial %d [%d,%d): %d pixels, old %d", trial, lo, hi, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Key != w.Key || !bitsEqual(g.Color(), w.Color()) {
				t.Fatalf("trial %d [%d,%d): pixel %d is %+v, old fold %+v", trial, lo, hi, i, g, w)
			}
		}
	}
}
