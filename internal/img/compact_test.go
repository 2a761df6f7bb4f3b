package img

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"gvmr/internal/vec"
)

// checkCompact asserts that im's compact form is the same frame: its raw
// stream is EncodeRaw's bytes and digests to im.Digest, its PNG is
// EncodePNG's bytes, and it holds no more than the raw framebuffer.
func checkCompact(t *testing.T, name string, im *Image) *Compact {
	t.Helper()
	c := im.Compact()
	var wantRaw, gotRaw, wantPNG, gotPNG bytes.Buffer
	if err := im.EncodeRaw(&wantRaw); err != nil {
		t.Fatal(err)
	}
	if err := c.EncodeRaw(&gotRaw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRaw.Bytes(), wantRaw.Bytes()) {
		t.Errorf("%s: compact raw stream differs from EncodeRaw", name)
	}
	h := sha256.New()
	var dims [16]byte
	binary.LittleEndian.PutUint64(dims[0:], uint64(c.W))
	binary.LittleEndian.PutUint64(dims[8:], uint64(c.H))
	h.Write(dims[:])
	h.Write(gotRaw.Bytes())
	if got := hex.EncodeToString(h.Sum(nil)); got != im.Digest() {
		t.Errorf("%s: streamed raw digests to %s, the image to %s", name, got, im.Digest())
	}
	if im.W > 0 && im.H > 0 {
		if err := im.EncodePNG(&wantPNG); err != nil {
			t.Fatal(err)
		}
		if err := c.EncodePNG(&gotPNG); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotPNG.Bytes(), wantPNG.Bytes()) {
			t.Errorf("%s: compact PNG differs from EncodePNG", name)
		}
	}
	if raw := RawBytes(im.W, im.H); c.Bytes() > raw {
		t.Errorf("%s: compact holds %d bytes, raw is %d", name, c.Bytes(), raw)
	}
	return c
}

// TestCompactMatchesFull: the compact form is the full frame, on an
// all-background image, on a dense one that never repeats its fill, on
// the bit patterns a float comparison would merge (NaN payloads, ±0,
// denormals), on a frame shaped like a render — a disc on a
// background — and on runs that cross the raw writer's chunks.
func TestCompactMatchesFull(t *testing.T) {
	bg := New(176, 176, vec.New4(0.1, 0.2, 0.3, 1))
	if c := checkCompact(t, "background", bg); c.Bytes() != 0 {
		t.Errorf("all-background frame holds %d bytes beyond its fill", c.Bytes())
	}

	r := rand.New(rand.NewPCG(3, 4))
	dense := New(64, 48, vec.V4{})
	for i := range dense.Pix {
		dense.Pix[i] = vec.V4{X: r.Float32(), Y: r.Float32(), Z: r.Float32(), W: 1}
	}
	if c := checkCompact(t, "dense", dense); c.Bytes() > RawBytes(dense.W, dense.H)+64 || len(c.spans) != 1 {
		t.Errorf("dense frame: %d bytes in %d spans, raw %d", c.Bytes(), len(c.spans), RawBytes(dense.W, dense.H))
	}

	odd := oddBits(7, 5)
	checkCompact(t, "odd bits", odd)
	// -0 is not the fill +0, and a NaN is not a NaN with another payload.
	zeros := New(3, 1, vec.V4{})
	zeros.Pix[1].Y = float32(math.Copysign(0, -1))
	zeros.Pix[2].X = math.Float32frombits(0x7fc00001)
	if c := checkCompact(t, "signed zeros", zeros); len(c.lit) != 2 {
		t.Errorf("-0 or NaN merged with the fill: %d literal pixels, want 2", len(c.lit))
	}
	nans := New(4, 1, vec.V4{X: math.Float32frombits(0x7fc00001)})
	nans.Pix[2].X = math.Float32frombits(0x7fc00002)
	if c := checkCompact(t, "NaN payloads", nans); len(c.lit) != 1 {
		t.Errorf("NaN payloads: %d literal pixels, want 1", len(c.lit))
	}

	disc := New(40, 30, vec.New4(0, 0, 0, 1))
	for y := 0; y < disc.H; y++ {
		for x := 0; x < disc.W; x++ {
			if dx, dy := x-20, y-15; dx*dx+dy*dy < 100 {
				disc.Set(x, y, vec.New4(float64(x)/40, float64(y)/30, 0.5, 1))
			}
		}
	}
	if c := checkCompact(t, "disc", disc); c.Bytes() >= RawBytes(disc.W, disc.H)/2 {
		t.Errorf("disc frame holds %d of %d raw bytes", c.Bytes(), RawBytes(disc.W, disc.H))
	}
	// Runs of random length, so spans straddle EncodeRaw's chunk seams.
	runs := New(150, 90, vec.New4(0, 0, 0, 1))
	for i, lit := 0, false; i < len(runs.Pix); lit = !lit {
		n := 1 + r.IntN(300)
		for ; n > 0 && i < len(runs.Pix); n, i = n-1, i+1 {
			if lit {
				runs.Pix[i] = vec.V4{X: r.Float32(), W: 1}
			}
		}
	}
	checkCompact(t, "runs", runs)
	checkCompact(t, "empty", &Image{})
}

// TestCompactConcurrentEncode: responses sharing one cached frame write
// it at once, each through its own pooled buffer.
func TestCompactConcurrentEncode(t *testing.T) {
	ims := []*Image{oddBits(31, 17), New(40, 9, vec.New4(0.5, 0, 0, 1))}
	ims[1].Set(20, 4, vec.New4(1, 1, 1, 1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		im := ims[g%2]
		c := im.Compact()
		var want bytes.Buffer
		if err := im.EncodeRaw(&want); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var got bytes.Buffer
				if err := c.EncodeRaw(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("concurrent raw write %d differs (%v)", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzCompact turns each fuzz byte into one pixel of a W×H frame, drawn
// from a small set of awkward bit patterns so fills, runs and near-misses
// (NaN payloads, ±0, denormals) all occur, and asserts the compact form
// is the full frame.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{2, 9, 9, 0, 9, 0, 0, 255, 128})
	f.Add(bytes.Repeat([]byte{7, 1, 2, 3}, 40))
	pats := [8]uint32{0x00000000, 0x80000000, 0x7fc00001, 0x7fc00002, 0x00000001, 0x3f800000, 0x3e800000, 0xff800000}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := 1 + int(data[0]%16)
		px := data[1:]
		h := len(px) / w
		im := New(w, h, vec.V4{})
		for i := range im.Pix {
			b := px[i]
			im.Pix[i] = vec.V4{
				X: math.Float32frombits(pats[b&7]),
				Y: math.Float32frombits(pats[(b>>3)&7]),
				Z: math.Float32frombits(pats[b>>6]),
				W: math.Float32frombits(pats[(b>>5)&1]),
			}
		}
		checkCompact(t, "fuzz", im)
	})
}
