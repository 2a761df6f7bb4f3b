package img

import (
	"image"
	"image/png"
	"io"
	"slices"
	"sync"
	"unsafe"

	"gvmr/internal/vec"
)

// Compact is a framebuffer stored as one fill pixel and the spans of
// pixels that differ from it. A rendered frame is mostly background —
// the map emits fragments only where a ray meets a brick — so the fill is
// the frame's first pixel, the background whenever the volume leaves that
// corner uncovered. Pixels match the fill only when all four channels
// match bit for bit, so −0, NaN payloads and denormals survive.
//
// Every span is preceded by at least one fill pixel, so a Compact never
// holds more than the raw framebuffer (see Bytes): a frame with no repeat
// of its fill is a single span of all but its first pixel. A Compact is
// immutable and safe for concurrent use.
type Compact struct {
	W, H  int
	fill  vec.V4
	spans []span   // ascending, disjoint, non-adjacent
	lit   []vec.V4 // the spans' pixels, in span order
}

// span is the pixel-index range [start, end) of a run of literal pixels.
type span struct{ start, end int }

// pixBits is a pixel's 16 bytes of memory as two words: two pixels are
// bit-identical, all four channels, exactly when their words are equal.
type pixBits [2]uint64

// pixWords is the framebuffer's memory, one pixBits a pixel.
func (im *Image) pixWords() []pixBits {
	return unsafe.Slice((*pixBits)(unsafe.Pointer(unsafe.SliceData(im.Pix))), len(im.Pix))
}

// Compact returns the image's compact form. The image may be reused
// afterwards: the Compact shares none of its memory.
func (im *Image) Compact() *Compact {
	c := &Compact{W: im.W, H: im.H}
	if len(im.Pix) == 0 {
		return c
	}
	c.fill = im.Pix[0]
	words := im.pixWords()
	fill := words[0]
	var spans []span
	nLit := 0
	for i := 1; i < len(words); {
		if words[i] == fill {
			i++
			continue
		}
		start := i
		for i < len(words) && words[i] != fill {
			i++
		}
		spans = append(spans, span{start, i})
		nLit += i - start
	}
	if len(spans) == 0 {
		return c
	}
	// Copied out at their exact sizes, so Bytes is what the Compact holds.
	c.spans = slices.Clone(spans)
	c.lit = make([]vec.V4, 0, nLit)
	for _, s := range spans {
		c.lit = append(c.lit, im.Pix[s.start:s.end]...)
	}
	return c
}

// Bytes is the pixel data a Compact holds beyond its fixed-size header:
// the span table and the literal pixels. Each span costs at most the fill
// pixel before it, so Bytes never exceeds RawBytes(W, H).
func (c *Compact) Bytes() int64 {
	return int64(unsafe.Sizeof(span{}))*int64(len(c.spans)) + 16*int64(len(c.lit))
}

// expandRange writes pixels [from, from+len(pix)) of the full
// framebuffer into pix. k is the first span that ends after from and off
// the index in lit of that span's first pixel; expandRange returns both
// for the pixels after the range.
func (c *Compact) expandRange(pix []vec.V4, from, k, off int) (int, int) {
	to := from + len(pix)
	for p := from; p < to; {
		if k == len(c.spans) || p < c.spans[k].start {
			stop := to
			if k < len(c.spans) {
				stop = min(to, c.spans[k].start)
			}
			for ; p < stop; p++ {
				pix[p-from] = c.fill
			}
			continue
		}
		s := c.spans[k]
		p += copy(pix[p-from:], c.lit[off+p-s.start:off+s.end-s.start])
		if p == s.end {
			k, off = k+1, off+s.end-s.start
		}
	}
	return k, off
}

// rawChunk is the pixels EncodeRaw expands and writes at a time: 64 KiB.
// A response made of many small writes costs the HTTP layer a flush per
// few kilobytes; a chunk of the whole frame would cost every concurrent
// response the raw framebuffer again.
const rawChunk = 4096

// rawPool holds EncodeRaw's chunk buffers.
var rawPool = sync.Pool{New: func() any { return new([rawChunk]vec.V4) }}

// EncodeRaw writes exactly the bytes Image.EncodeRaw writes for the
// expanded framebuffer, expanding it a chunk at a time into a pooled
// buffer and writing each chunk with one Write.
func (c *Compact) EncodeRaw(w io.Writer) error {
	buf := rawPool.Get().(*[rawChunk]vec.V4)
	defer rawPool.Put(buf)
	k, off, n := 0, 0, c.W*c.H
	for from := 0; from < n; from += rawChunk {
		chunk := &Image{Pix: buf[:min(rawChunk, n-from)]}
		k, off = c.expandRange(chunk.Pix, from, k, off)
		if err := chunk.EncodeRaw(w); err != nil {
			return err
		}
	}
	return nil
}

// EncodePNG writes exactly the bytes Image.EncodePNG writes for the
// expanded framebuffer. The 8-bit image is filled with the fill's colour
// once and only the literal pixels are converted.
func (c *Compact) EncodePNG(w io.Writer) error {
	out := image.NewNRGBA(image.Rect(0, 0, c.W, c.H))
	if len(out.Pix) > 0 {
		f := nrgba(c.fill)
		copy(out.Pix, f[:])
		for k := 4; k < len(out.Pix); k *= 2 {
			copy(out.Pix[k:], out.Pix[:k])
		}
	}
	lit := c.lit
	for _, s := range c.spans {
		for i := s.start; i < s.end; i++ {
			p := nrgba(lit[0])
			copy(out.Pix[4*i:], p[:])
			lit = lit[1:]
		}
	}
	return png.Encode(w, out)
}
