// Package img provides the float framebuffer the renderer composites
// into, PNG/PPM encoding, and image comparison helpers for tests.
package img

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"os"
	"unsafe"

	"gvmr/internal/vec"
)

// Image is a W×H framebuffer of linear RGBA colors.
type Image struct {
	W, H int
	Pix  []vec.V4
}

// A pixel is four float32s with no padding, so on a little-endian host
// the framebuffer's memory is its raw encoding: Digest and EncodeRaw use
// those bytes in place there, and the portable per-pixel loop elsewhere.
var (
	_            [16]byte = [unsafe.Sizeof(vec.V4{})]byte{}
	littleEndian          = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
)

// pixBytes is the framebuffer's memory as bytes — the raw encoding on a
// little-endian host.
func (im *Image) pixBytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(im.Pix))), len(im.Pix)*16)
}

// New allocates an image filled with the given color.
func New(w, h int, fill vec.V4) *Image {
	im := &Image{W: w, H: h, Pix: make([]vec.V4, w*h)}
	for i := range im.Pix {
		im.Pix[i] = fill
	}
	return im
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) vec.V4 { return im.Pix[y*im.W+x] }

// Set stores the pixel at (x, y).
func (im *Image) Set(x, y int, c vec.V4) { im.Pix[y*im.W+x] = c }

// SetKey stores a pixel addressed by its MapReduce key (y*W + x).
func (im *Image) SetKey(key int32, c vec.V4) { im.Pix[key] = c }

// clamp8 converts a linear channel to 8-bit with clamping.
func clamp8(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// nrgba is a pixel's opaque 8-bit colour, as ToNRGBA stores it.
func nrgba(c vec.V4) [4]uint8 { return [4]uint8{clamp8(c.X), clamp8(c.Y), clamp8(c.Z), 255} }

// ToNRGBA converts to an 8-bit stdlib image.
func (im *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	for i, c := range im.Pix {
		p := nrgba(c)
		copy(out.Pix[4*i:], p[:])
	}
	return out
}

// EncodePNG writes the image as PNG.
func (im *Image) EncodePNG(w io.Writer) error {
	return png.Encode(w, im.ToNRGBA())
}

// PNGBound is an upper bound on the bytes EncodePNG writes for a w×h
// image: filtered rows of h·(4w+1) bytes as deflate stored blocks (5
// bytes a 64 KiB block, and a final one), the zlib header and checksum,
// the IDAT chunks that carry them (12 bytes each; every chunk but the
// last holds at least the encoder's 32 KiB buffer), the signature, IHDR
// and IEND. The encoder writes a frame — opaque — as 3-byte RGB rows, so
// a quarter of the bound's row bytes is slack for any block flate codes
// with Huffman tables instead of storing it.
func PNGBound(w, h int) int64 {
	rows := int64(h) * (4*int64(w) + 1)
	z := 2 + rows + 5*(rows/65535+2) + 4
	return 8 + 25 + z + 12*(z/(32<<10)+1) + 12
}

// WritePNG writes the image to a PNG file.
func (im *Image) WritePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := im.EncodePNG(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// WritePPM writes the image as a binary PPM (P6), handy for eyeballing
// without a PNG decoder.
func (im *Image) WritePPM(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	for _, c := range im.Pix {
		if _, err := w.Write([]byte{clamp8(c.X), clamp8(c.Y), clamp8(c.Z)}); err != nil {
			return err
		}
	}
	return w.Flush()
}

// EncodeRaw writes the framebuffer as raw little-endian float32 RGBA —
// W·H·16 bytes, row-major, the exact bits the renderer composited. The
// render service's format=raw responses use it so clients (and the CI
// smoke test) can compare served bits against a direct render.
func (im *Image) EncodeRaw(w io.Writer) error {
	if littleEndian {
		_, err := w.Write(im.pixBytes())
		return err
	}
	return im.encodeRawPortable(w)
}

// encodeRawPortable is EncodeRaw on any host, sixteen bytes at a time.
func (im *Image) encodeRawPortable(w io.Writer) error {
	buf := make([]byte, 16<<10)
	n := 0
	for _, c := range im.Pix {
		binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(c.X))
		binary.LittleEndian.PutUint32(buf[n+4:], math.Float32bits(c.Y))
		binary.LittleEndian.PutUint32(buf[n+8:], math.Float32bits(c.Z))
		binary.LittleEndian.PutUint32(buf[n+12:], math.Float32bits(c.W))
		n += 16
		if n == len(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			n = 0
		}
	}
	if n > 0 {
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// RawBytes returns the number of bytes EncodeRaw produces for a w×h image.
func RawBytes(w, h int) int64 { return int64(w) * int64(h) * 16 }

// DecodeRaw reads a raw float32 RGBA framebuffer (EncodeRaw's format) of
// the given dimensions.
func DecodeRaw(r io.Reader, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("img: invalid raw size %dx%d", w, h)
	}
	data := make([]byte, RawBytes(w, h))
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("img: raw framebuffer: %w", err)
	}
	im := &Image{W: w, H: h, Pix: make([]vec.V4, w*h)}
	for i := range im.Pix {
		n := i * 16
		im.Pix[i] = vec.V4{
			X: math.Float32frombits(binary.LittleEndian.Uint32(data[n:])),
			Y: math.Float32frombits(binary.LittleEndian.Uint32(data[n+4:])),
			Z: math.Float32frombits(binary.LittleEndian.Uint32(data[n+8:])),
			W: math.Float32frombits(binary.LittleEndian.Uint32(data[n+12:])),
		}
	}
	return im, nil
}

// Diff compares two images and returns the maximum and mean absolute
// channel error (RGB only). Mismatched sizes return max error 2.
func Diff(a, b *Image) (maxErr, meanErr float64) {
	if a.W != b.W || a.H != b.H {
		return 2, 2
	}
	var sum float64
	for i := range a.Pix {
		for _, d := range []float32{
			a.Pix[i].X - b.Pix[i].X,
			a.Pix[i].Y - b.Pix[i].Y,
			a.Pix[i].Z - b.Pix[i].Z,
		} {
			v := float64(d)
			if v < 0 {
				v = -v
			}
			sum += v
			if v > maxErr {
				maxErr = v
			}
		}
	}
	meanErr = sum / float64(3*len(a.Pix))
	return maxErr, meanErr
}

// Digest returns a SHA-256 hex digest over the image dimensions and the
// exact float32 bit patterns of every pixel. Two images digest equal iff
// they are bit-identical — the golden-image regression tests and the
// serial-vs-parallel determinism tests compare renders through it.
func (im *Image) Digest() string {
	h := sha256.New()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(im.W))
	binary.LittleEndian.PutUint64(buf[8:], uint64(im.H))
	h.Write(buf[:])
	if littleEndian {
		h.Write(im.pixBytes())
	} else {
		_ = im.encodeRawPortable(h) // hash writes cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MeanLuminance returns the average of (R+G+B)/3 over all pixels: a cheap
// perceptual statistic used by tests to assert an image is non-empty.
func (im *Image) MeanLuminance() float64 {
	var sum float64
	for _, c := range im.Pix {
		sum += float64(c.X+c.Y+c.Z) / 3
	}
	return sum / float64(len(im.Pix))
}
