package dist

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/flatepool"
	"gvmr/internal/volume/dataset"
)

// realStripes maps the cluster benchmark's frame — skull 128³ → 176², a
// 4-GPU job's 4 bricks — once per test binary.
var realStripes = sync.OnceValues(func() ([]core.BrickStripe, error) {
	src, err := dataset.New(dataset.Skull, dataset.PaperDims(dataset.Skull, 128))
	if err != nil {
		return nil, err
	}
	cam, err := core.OrbitCamera(src, 176, 176, 30)
	if err != nil {
		return nil, err
	}
	opt, err := JobSpec{
		Dataset: dataset.Skull, Edge: 128, Width: 176, Height: 176,
		GPUs: 4, Shading: true, StepVoxels: 1, TerminationAlpha: 0.98,
		Camera: CameraFrom(cam),
	}.Options()
	if err != nil {
		return nil, err
	}
	res, err := core.MapBricks(cluster.AC(4), opt, []int{0, 1, 2, 3}, 0)
	if err != nil {
		return nil, err
	}
	return res.Stripes, nil
})

func mustRealStripes(tb testing.TB) []core.BrickStripe {
	tb.Helper()
	stripes, err := realStripes()
	if err != nil {
		tb.Fatal(err)
	}
	if len(stripes) != 4 {
		tb.Fatalf("mapped %d stripes, want 4", len(stripes))
	}
	return stripes
}

// stdDeflate and stdInflate are plain stdlib flate, independent of the
// package's pooled helper: what the tests compare it against and craft
// bodies with.
func stdDeflate(tb testing.TB, raw []byte, level int) []byte {
	tb.Helper()
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

func stdInflate(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

var benchSink int

// BenchmarkWireCodec times the compressed encoding on real stripes.
// wire-bytes/op is what the virtual wire model charges; ns/op is what it
// does not. flate-bytes/op is the part of the columnar stream that goes
// through flate: a layout that sends the noise planes through it again
// shows here. Steady-state encode allocates the returned payload and
// nothing that scales with it.
func BenchmarkWireCodec(b *testing.B) {
	stripes := mustRealStripes(b)
	payload := encodeCF2(stripes)
	flateIn := len(stdInflate(b, payload))
	b.Run("cf2/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(encodeCF2(stripes))
		}
		b.ReportMetric(float64(len(payload)), "wire-bytes/op")
		b.ReportMetric(float64(flateIn), "flate-bytes/op")
	})
	b.Run("cf2/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			back, err := decodeCF2(payload, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(back)
		}
		b.ReportMetric(float64(len(payload)), "wire-bytes/op")
		b.ReportMetric(float64(flateIn), "flate-bytes/op")
	})
}

// smoothStripes is a compressible fixture: colours on a 1/256 grid and
// half-voxel depths, so no byte plane is noise and the plane test stores
// nothing.
func smoothStripes() []core.BrickStripe {
	stripes := make([]core.BrickStripe, 3)
	for u := range stripes {
		stripes[u].Brick = u
		for i := 0; i < 3000; i++ {
			c := float32((i/7+u*40)%256) / 256
			stripes[u].Frags = append(stripes[u].Frags, composite.Fragment{
				Key: int32(i / 2), R: c, G: c / 2, B: 1 - c, A: 0.5, Depth: float32(i%9) / 2,
			})
		}
	}
	return stripes
}

// TestWireCodecSizeGuard holds the modelled wire: the virtual clock
// charges payload bytes, so storing the noise planes may not make any
// payload larger than the whole columnar stream deflated at the shipped
// level — the layout that deflated every plane — and on real stripes the
// shipped level may trade at most 2 % of stdlib level 9's size for its
// speed. A later level or plane-test change that would bloat
// virtual_ms_per_frame fails here, in tier-1.
func TestWireCodecSizeGuard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stripes []core.BrickStripe
		stores  bool
	}{
		{"real", mustRealStripes(t), true},
		{"smooth", smoothStripes(), false},
		{"pinned", pinnedStripes(3), true},
	} {
		payload := encodeCF2(tc.stripes)
		whole, _, _ := appendColumnar(nil, tc.stripes)
		packed := stdDeflate(t, whole, wireFlateLevel)
		best := stdDeflate(t, whole, flate.BestCompression)
		flateLen := len(flateSection(t, payload))
		t.Logf("%s: %d bytes shipped (%d of them flate) against %d with every plane deflated at level %d and %d at level 9; %d of %d stream bytes deflated",
			tc.name, len(payload), flateLen, len(packed), wireFlateLevel, len(best), len(stdInflate(t, payload)), len(whole))
		if len(payload) > len(packed) {
			t.Errorf("%s: shipped payload %d bytes > %d with every plane deflated", tc.name, len(payload), len(packed))
		}
		if tc.name == "real" && float64(len(payload)) > 1.02*float64(len(best)) {
			t.Errorf("%s: shipped payload %d bytes > 1.02 × level 9's %d", tc.name, len(payload), len(best))
		}
		if stores := flateLen < len(payload); stores != tc.stores {
			t.Errorf("%s: stores planes = %v, want %v", tc.name, stores, tc.stores)
		}
		back, err := decodeCF2(payload, int64(len(whole)))
		if err != nil {
			t.Fatal(err)
		}
		if !stripesBitEqual(tc.stripes, back) {
			t.Errorf("%s: stripes changed bits over the wire", tc.name)
		}
	}
}

// flateSection returns the flate stream a cf2 payload begins with, found
// by stdlib flate alone.
func flateSection(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	src := bytes.NewReader(payload)
	if _, err := io.Copy(io.Discard, flate.NewReader(src)); err != nil {
		tb.Fatal(err)
	}
	return payload[:len(payload)-src.Len()]
}

// poolFixtures are payloads of very different sizes, so a pooled buffer
// or compressor last used for one is next used for another: nothing, one
// fragment, fragment lists with NaN payloads, and a few thousand
// fragments with runs.
func poolFixtures() [][]core.BrickStripe {
	big := make([]composite.Fragment, 6000)
	for i := range big {
		big[i] = composite.Fragment{Key: int32(i / 3), R: float32(i) / 7, A: 0.5, Depth: float32(i % 11)}
	}
	return [][]core.BrickStripe{
		nil,
		{{Brick: 9, Frags: []composite.Fragment{{Key: 1, A: 1, Depth: 0.5}}}},
		listStripes(),
		{{Brick: 0, Frags: big[:4000]}, {Brick: 1}, {Brick: 2, Frags: big[4000:]}},
	}
}

// TestWireCodecPoolsConcurrent interleaves all fixture sizes through the
// shared pools from 8 goroutines; every round trip must be exact to the
// bit. Run under -race in CI.
func TestWireCodecPoolsConcurrent(t *testing.T) {
	fixtures := poolFixtures()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				want := fixtures[(g*3+i)%len(fixtures)]
				back, err := decodeCF2(encodeCF2(want), 1<<20)
				if err != nil {
					t.Errorf("goroutine %d round %d: decode: %v", g, i, err)
					return
				}
				if !stripesBitEqual(want, back) {
					t.Errorf("goroutine %d round %d: round trip changed bits", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWireCodecEncodeAllocs: with the pools warm, an encode allocates the
// payload it returns and nothing that scales with the stripes.
func TestWireCodecEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector on: sync.Pool drops Puts at random")
	}
	stripes := poolFixtures()[3]
	encodeCF2(stripes)
	if n := testing.AllocsPerRun(50, func() { encodeCF2(stripes) }); n > 4 {
		t.Errorf("%v allocs per steady-state encode, want <= 4", n)
	}
}

// TestWireCodecPoolsSurviveErrors: a reader or buffer that goes back to
// its pool after a failed decode must not poison the next one on the
// same goroutine (sync.Pool hands a P its own last Put first). The
// fixture stores planes, so the faults aim at its flate section.
func TestWireCodecPoolsSurviveErrors(t *testing.T) {
	want := pinnedStripes(3)
	good := encodeCF2(want)
	fl := len(flateSection(t, good))
	if fl == len(good) {
		t.Fatal("fixture stores no plane")
	}
	if _, err := decodeCF2(good[:fl/2], 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated flate section: got %v, want io.ErrUnexpectedEOF", err)
	}
	// Block type 3 is reserved: corrupt the flate section's first block.
	flipped := bytes.Clone(good)
	flipped[0] |= 0x06
	var corrupt flate.CorruptInputError
	if _, err := decodeCF2(flipped, 1<<20); !errors.As(err, &corrupt) {
		t.Errorf("bit-flipped flate section: got %v, want flate.CorruptInputError", err)
	}
	// Over the limit by one byte, with a buffer the pool has seen grow.
	if _, err := decodeCF2(good, 1023); err == nil || !strings.Contains(err.Error(), "payload inflates beyond 1023 bytes") {
		t.Errorf("over-limit body: got %v", err)
	}
	back, err := decodeCF2(good, 1<<20)
	if err != nil {
		t.Fatalf("valid body after failed decodes: %v", err)
	}
	if !stripesBitEqual(want, back) {
		t.Error("valid body after failed decodes changed bits")
	}
}

// TestColumnarRejectsTrailingBytes: each plane section must end exactly
// where its planes do — for an empty payload too, whose sections are
// empty — and what follows the flate stream must be nothing or a
// nonzero 20-bit mask with its stored planes.
func TestColumnarRejectsTrailingBytes(t *testing.T) {
	for _, stripes := range [][]core.BrickStripe{nil, listStripes(), pinnedStripes(3)} {
		payload := encodeCF2(stripes)
		tail := payload[len(flateSection(t, payload)):]
		body := append(stdDeflate(t, append(stdInflate(t, payload), 0), flate.BestSpeed), tail...)
		if _, err := decodeCF2(body, 1<<20); err == nil || !strings.Contains(err.Error(), "packed plane section") {
			t.Errorf("%d stripes + 1 trailing inflated byte: got %v", len(stripes), err)
		}
		want := "stored plane section"
		if len(tail) == 0 {
			want = "truncated plane mask"
		}
		if _, err := decodeCF2(append(bytes.Clone(payload), 0), 1<<20); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%d stripes + 1 trailing byte: got %v, want %q", len(stripes), err, want)
		}
		// A stored section short of its planes bounds the fragments below
		// what the runs claim.
		if len(tail) > 0 {
			if _, err := decodeCF2(payload[:len(payload)-1], 1<<20); err == nil || !strings.Contains(err.Error(), "beyond payload") {
				t.Errorf("%d stripes, stored section 1 byte short: got %v", len(stripes), err)
			}
		}
	}
	for _, mask := range [][]byte{{0, 0, 0}, {0, 0, 0x10}} {
		body := append(encodeCF2(listStripes()), mask...)
		if _, err := decodeCF2(body, 1<<20); err == nil || !strings.Contains(err.Error(), "plane mask") {
			t.Errorf("mask % x: got %v", mask, err)
		}
	}
}

// TestInflateHoldsAtMostLimit: the zip-bomb guard bounds what is held,
// not only what is accepted — a body inflating to 4 MiB against a 1000
// byte bound never grows the buffer past maxBytes+1, and a pooled buffer
// that is already larger is read into no further than that.
func TestInflateHoldsAtMostLimit(t *testing.T) {
	zeros := func(n int) []byte { return stdDeflate(t, make([]byte, n), flate.BestSpeed) }
	bomb := zeros(4 << 20)
	const maxBytes = 1000
	const wantErr = "dist: gvmr-cf2 payload inflates beyond 1000 bytes"
	fresh, grown := new(flatepool.Buf), new(flatepool.Buf)
	*grown = make(flatepool.Buf, 1<<16)
	for _, buf := range []*flatepool.Buf{fresh, grown} {
		before := cap(*buf)
		_, err := inflate(EncodingColumnar2, bomb, maxBytes, buf)
		if err == nil || err.Error() != wantErr {
			t.Fatalf("got %v, want %q", err, wantErr)
		}
		if len(*buf) != maxBytes+1 {
			t.Errorf("inflated %d bytes, want exactly maxBytes+1", len(*buf))
		}
		if before == 0 && cap(*buf) > maxBytes+1 {
			t.Errorf("buffer grew to %d bytes against a bound of %d", cap(*buf), maxBytes+1)
		}
		if before != 0 && cap(*buf) != before {
			t.Errorf("pooled buffer reallocated: cap %d -> %d", before, cap(*buf))
		}
	}
	// The bound itself is accepted, one byte past it is not — also when
	// that byte arrives together with the stream's EOF.
	if _, err := inflate(EncodingColumnar2, zeros(maxBytes), maxBytes, fresh); err != nil || len(*fresh) != maxBytes {
		t.Errorf("body of exactly maxBytes: %d bytes, %v", len(*fresh), err)
	}
	if _, err := inflate(EncodingColumnar2, zeros(maxBytes+1), maxBytes, fresh); err == nil || err.Error() != wantErr {
		t.Errorf("body of maxBytes+1: got %v, want %q", err, wantErr)
	}
}

// TestPlaneTest: byteChanges agrees with a byte-by-byte count at every
// length around its word stride, and the plane test stores exactly the
// planes that are noise — not a plane that changes at every position
// but cycles through seven values, and nothing of a tiny payload.
func TestPlaneTest(t *testing.T) {
	r := rand.New(rand.NewPCG(39, 1))
	for n := 0; n < 40; n++ {
		for range 20 {
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(r.IntN(3))
			}
			want := 0
			for i := 1; i < n; i++ {
				if p[i] != p[i-1] {
					want++
				}
			}
			if got := byteChanges(p); got != want {
				t.Fatalf("% x: byteChanges %d, want %d", p, got, want)
			}
		}
	}
	frags := make([]composite.Fragment, 2000)
	for i := range frags {
		frags[i] = composite.Fragment{
			Key: int32(i),
			R:   math.Float32frombits(0x3f000000 | r.Uint32()&0xffff), // two noise planes
			G:   float32(i%7) / 7,                                     // cycles: packed
			A:   1, Depth: float32(i),
		}
	}
	planesOf := func(frags []composite.Fragment) ([]byte, int) {
		raw, head, total := appendColumnar(nil, []core.BrickStripe{{Frags: frags}})
		return raw[head:], total
	}
	if got := storedPlanes(planesOf(frags)); got != 0b11 {
		t.Errorf("stored planes %020b, want R's two low bytes", got)
	}
	if got := storedPlanes(planesOf(frags[:storedMinFrags-1])); got != 0 {
		t.Errorf("tiny payload stored planes %020b", got)
	}
}
