package volume

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// FuzzVolumeFileV2 hammers the v2 header/brick-directory decoder with
// hostile bytes. The decoder is the trust boundary of the out-of-core
// path — gvmrd opens operator-supplied files — so the properties are
// safety properties: never panic, never accept a directory inconsistent
// with the dims/counts, and for every accepted header the decode→encode
// round trip is a fixed point (so what the pager acts on is exactly what
// is on disk, no normalisation ambiguity).
func FuzzVolumeFileV2(f *testing.F) {
	// A real header from the writer — brick 0 constant, the rest dense —
	// plus structured near-misses.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.gvmr")
	v := randomVolume(rand.New(rand.NewSource(127)), Dims{9, 7, 5})
	for i := range v.Data {
		if x, y, z := i%9, i/9%7, i/63; x < 3 && y < 3 && z < 2 {
			v.Data[i] = -1
		}
	}
	if err := WriteFileV2(path, NewVolumeSource(v, "t"), V2Options{BrickEdge: 4, Compress: true}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	hdr, consumed, err := decodeV2Header(good)
	if err != nil {
		f.Fatal(err)
	}
	if !hdr.dir[0].constant() || hdr.dir[1].constant() {
		f.Fatal("seed volume: want brick 0 constant and brick 1 dense")
	}
	f.Add(good[:consumed])
	f.Add(good[:v2FixedHeaderSize])
	f.Add([]byte("GVMR"))
	mut := append([]byte(nil), good[:consumed]...)
	binary.LittleEndian.PutUint32(mut[32:], 0xFFFFFFFF) // hostile brick count
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := decodeV2Header(data)
		if err != nil {
			return
		}
		if n < v2FixedHeaderSize || n > len(data) {
			t.Fatalf("consumed %d outside [%d, %d]", n, v2FixedHeaderSize, len(data))
		}
		if got := len(h.dir); got != h.counts[0]*h.counts[1]*h.counts[2] {
			t.Fatalf("directory length %d != counts product %v", got, h.counts)
		}
		enc := encodeV2Header(h)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("decode→encode not a fixed point:\n in  %x\n out %x", data[:n], enc)
		}
		h2, n2, err := decodeV2Header(enc)
		if err != nil || n2 != n {
			t.Fatalf("re-decode of accepted header failed: %v (consumed %d, want %d)", err, n2, n)
		}
		if h2.dims != h.dims || h2.counts != h.counts || h2.flags != h.flags {
			t.Fatal("re-decode disagrees on fixed fields")
		}
	})
}
