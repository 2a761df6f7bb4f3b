package img

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"image/png"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"gvmr/internal/vec"
)

func TestNewFill(t *testing.T) {
	fill := vec.New4(0.25, 0.5, 0.75, 1)
	im := New(4, 3, fill)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 12 {
		t.Fatalf("geometry wrong: %dx%d, %d pixels", im.W, im.H, len(im.Pix))
	}
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			if im.At(x, y) != fill {
				t.Fatalf("pixel (%d,%d) not filled", x, y)
			}
		}
	}
}

func TestSetAtKey(t *testing.T) {
	im := New(5, 4, vec.V4{})
	c := vec.New4(1, 0, 0, 1)
	im.Set(3, 2, c)
	if im.At(3, 2) != c {
		t.Error("Set/At mismatch")
	}
	if im.Pix[2*5+3] != c {
		t.Error("Set wrote wrong linear index")
	}
	im.SetKey(int32(1*5+4), c)
	if im.At(4, 1) != c {
		t.Error("SetKey wrote wrong pixel")
	}
}

func TestClampAndEncodePNG(t *testing.T) {
	im := New(2, 2, vec.V4{})
	im.Set(0, 0, vec.New4(2, -1, 0.5, 1)) // out-of-range channels clamp
	var buf bytes.Buffer
	if err := im.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b, _ := decoded.At(0, 0).RGBA()
	if r>>8 != 255 {
		t.Errorf("over-range red = %d, want 255", r>>8)
	}
	if g>>8 != 0 {
		t.Errorf("negative green = %d, want 0", g>>8)
	}
	if b>>8 != 128 {
		t.Errorf("half blue = %d, want 128", b>>8)
	}
}

func TestWritePNGAndPPM(t *testing.T) {
	dir := t.TempDir()
	im := New(3, 3, vec.New4(0.2, 0.4, 0.6, 1))
	pngPath := filepath.Join(dir, "x.png")
	if err := im.WritePNG(pngPath); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(pngPath); err != nil || fi.Size() == 0 {
		t.Errorf("png not written: %v", err)
	}
	ppmPath := filepath.Join(dir, "x.ppm")
	if err := im.WritePPM(ppmPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ppmPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P6\n3 3\n255\n")) {
		t.Errorf("ppm header wrong: %q", data[:12])
	}
	if len(data) != 11+3*3*3 {
		t.Errorf("ppm payload size %d", len(data))
	}
}

func TestDiff(t *testing.T) {
	a := New(2, 2, vec.V4{})
	b := New(2, 2, vec.V4{})
	if mx, mn := Diff(a, b); mx != 0 || mn != 0 {
		t.Errorf("identical images differ: %v %v", mx, mn)
	}
	b.Set(1, 1, vec.New4(0.5, 0, 0, 1))
	mx, mean := Diff(a, b)
	if mx < 0.49 || mx > 0.51 {
		t.Errorf("max diff = %v, want 0.5", mx)
	}
	if mean <= 0 || mean > mx {
		t.Errorf("mean diff = %v", mean)
	}
	c := New(3, 2, vec.V4{})
	if mx, _ := Diff(a, c); mx != 2 {
		t.Errorf("size mismatch should return sentinel 2, got %v", mx)
	}
}

func TestMeanLuminance(t *testing.T) {
	im := New(2, 1, vec.V4{})
	im.Set(0, 0, vec.New4(1, 1, 1, 1))
	got := im.MeanLuminance()
	if got < 0.49 || got > 0.51 {
		t.Errorf("MeanLuminance = %v, want 0.5", got)
	}
}

func TestDigest(t *testing.T) {
	a := New(4, 3, vec.V4{X: 0.25, W: 1})
	b := New(4, 3, vec.V4{X: 0.25, W: 1})
	if a.Digest() != b.Digest() {
		t.Error("identical images digest differently")
	}
	if len(a.Digest()) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(a.Digest()))
	}
	// A one-ULP change in one channel of one pixel must change the digest.
	c := New(4, 3, vec.V4{X: 0.25, W: 1})
	px := c.At(2, 1)
	px.Y = math.Float32frombits(math.Float32bits(px.Y) + 1)
	c.Set(2, 1, px)
	if a.Digest() == c.Digest() {
		t.Error("one-ULP pixel change not reflected in digest")
	}
	// Same pixel data at different dims must digest differently.
	d := New(3, 4, vec.V4{X: 0.25, W: 1})
	if a.Digest() == d.Digest() {
		t.Error("dims not part of the digest")
	}
}

// TestRawRoundTrip checks EncodeRaw/DecodeRaw preserve every bit,
// including NaN payloads and negative zeros.
func TestRawRoundTrip(t *testing.T) {
	im := New(33, 7, vec.V4{})
	for i := range im.Pix {
		im.Pix[i] = vec.V4{
			X: float32(i) * 0.013, Y: -float32(i),
			Z: float32(math.Inf(1)), W: float32(math.Copysign(0, -1)),
		}
	}
	im.Pix[5].X = float32(math.NaN())
	var buf bytes.Buffer
	if err := im.EncodeRaw(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != RawBytes(im.W, im.H) {
		t.Fatalf("raw size %d != %d", buf.Len(), RawBytes(im.W, im.H))
	}
	back, err := DecodeRaw(&buf, im.W, im.H)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != im.Digest() {
		t.Error("raw round trip changed bits")
	}
	if _, err := DecodeRaw(bytes.NewReader(nil), 2, 2); err == nil {
		t.Error("truncated raw accepted")
	}
	if _, err := DecodeRaw(bytes.NewReader(nil), 0, 2); err == nil {
		t.Error("zero-size raw accepted")
	}
}

// oddBits is an image of the bit patterns a byte-order or per-pixel
// shortcut could mishandle: NaNs with payloads, ±0, ±Inf, denormals,
// and ordinary colours.
func oddBits(w, h int) *Image {
	pats := []uint32{0x7fc00001, 0xffc12345, 0x00000000, 0x80000000, 0x7f800000, 0xff800000,
		0x00000001, 0x807fffff, 0x3e800000, 0x3f7fffff, 0x12345678}
	im := New(w, h, vec.V4{})
	for i := range im.Pix {
		f := func(k int) float32 { return math.Float32frombits(pats[(4*i+k)%len(pats)]) }
		im.Pix[i] = vec.V4{X: f(0), Y: f(1), Z: f(2), W: f(3)}
	}
	return im
}

// TestInPlaceMatchesPortable: Digest and EncodeRaw, which use the
// framebuffer's memory in place on a little-endian host, agree bit for
// bit with the portable per-pixel encoding: the same raw bytes, and the
// digest of the dimensions followed by those bytes one pixel at a time.
func TestInPlaceMatchesPortable(t *testing.T) {
	for _, size := range [][2]int{{0, 0}, {1, 1}, {7, 5}, {176, 176}} {
		im := oddBits(size[0], size[1])
		var portable, raw bytes.Buffer
		if err := im.encodeRawPortable(&portable); err != nil {
			t.Fatal(err)
		}
		if err := im.EncodeRaw(&raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw.Bytes(), portable.Bytes()) || int64(raw.Len()) != RawBytes(im.W, im.H) {
			t.Errorf("%dx%d: EncodeRaw differs from the portable encoding", im.W, im.H)
		}
		h := sha256.New()
		var dims [16]byte
		binary.LittleEndian.PutUint64(dims[0:], uint64(im.W))
		binary.LittleEndian.PutUint64(dims[8:], uint64(im.H))
		h.Write(dims[:])
		for p := portable.Bytes(); len(p) > 0; p = p[16:] {
			h.Write(p[:16])
		}
		if got, want := im.Digest(), hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%dx%d: Digest %s, portable %s", im.W, im.H, got, want)
		}
	}
}

// TestPNGBound: no image encodes past PNGBound — noise, the worst case
// for flate, at the sizes the service renders and at odd small ones.
func TestPNGBound(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, size := range [][2]int{{1, 1}, {3, 2}, {64, 1}, {1, 64}, {160, 160}, {176, 176}, {256, 256}, {600, 400}} {
		im := New(size[0], size[1], vec.V4{})
		for i := range im.Pix {
			im.Pix[i] = vec.V4{X: r.Float32(), Y: r.Float32(), Z: r.Float32(), W: 1}
		}
		var buf bytes.Buffer
		if err := im.EncodePNG(&buf); err != nil {
			t.Fatal(err)
		}
		if bound := PNGBound(im.W, im.H); int64(buf.Len()) > bound {
			t.Errorf("%dx%d noise: PNG of %d bytes > bound %d", im.W, im.H, buf.Len(), bound)
		}
	}
}
