package volume

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
	// A real header from the writer — run-length payloads, brick 0
	// constant, the rest dense — plus structured near-misses.
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
	if !hdr.dir[0].constant() || hdr.dir[1].constant() || hdr.flags != v2FlagRuns {
		f.Fatal("seed volume: want run-length payloads, brick 0 constant and brick 1 dense")
	}
	f.Add(good[:consumed])
	f.Add(good[:v2FixedHeaderSize])
	f.Add([]byte("GVMR"))
	mut := append([]byte(nil), good[:consumed]...)
	binary.LittleEndian.PutUint32(mut[32:], 0xFFFFFFFF) // hostile brick count
	f.Add(mut)
	retired := append([]byte(nil), good[:consumed]...)
	binary.LittleEndian.PutUint32(retired[44:], v2FlagFlate|v2FlagRuns) // refused by name
	f.Add(retired)

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

// decodeVoxels decodes a run-length payload of n voxels, whatever the
// host's byte order.
func decodeVoxels(payload []byte, n int) ([]float32, error) {
	raw := make([]byte, 4*n)
	if err := decodeRuns(raw, payload); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

// FuzzBrickRuns hammers the run-length payload decoder, the pager's other
// trust boundary: payloads come from operator-supplied files too. It never
// panics, and refuses with errCorruptPayload; it accepts only a payload
// that writes every byte of the n-voxel core and ends exactly there — the
// same bytes do not decode to n±1 voxels, nor with a byte more or less;
// and re-encoding what it accepted gives a payload no longer than
// v2MaxStored that decodes to the same bits.
func FuzzBrickRuns(f *testing.F) {
	// The writer's payload for a plateau brick: a flat lower half under a
	// ramp.
	v := New(Cube(6))
	for i := range v.Data {
		v.Data[i] = 0.25
		if i >= 108 {
			v.Data[i] += float32(i%7) / 8
		}
	}
	path := filepath.Join(f.TempDir(), "plateau.gvmr")
	if err := WriteFileV2(path, NewVolumeSource(v, "p"), V2Options{BrickEdge: 6, Compress: true}); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	h, _, err := decodeV2Header(file)
	if err != nil || h.dir[0].constant() {
		f.Fatal("plateau brick not stored dense", err)
	}
	f.Add(file[h.dir[0].off:], uint16(len(v.Data)))
	negZero, nan := math.Float32frombits(1<<31), math.Float32frombits(0x7fc12345)
	for _, vox := range [][]float32{
		{0, negZero, negZero, 0, 0, 0, negZero},
		{nan, nan, nan, 1, nan, 2, 2},
	} {
		f.Add(appendRuns(nil, vox), uint16(len(vox)))
	}
	// No runs at all is the longest payload: v2MaxStored is exact.
	distinct := make([]float32, 130)
	for i := range distinct {
		distinct[i] = float32(i)
	}
	if enc := appendRuns(nil, distinct); int64(len(enc)) != v2MaxStored(4*130) {
		f.Fatalf("130 distinct voxels encode to %d bytes, v2MaxStored says %d", len(enc), v2MaxStored(4*130))
	} else {
		f.Add(enc, uint16(130))
	}
	// One of each shape the decoder must refuse, for a 4-voxel core.
	one := []byte{0, 0, 0x80, 0x3f}
	for name, p := range map[string][]byte{
		"literals-past-core": append([]byte{5}, bytes.Repeat(one, 5)...),
		"run-past-core":      append([]byte{0, 5}, one...),
		"zero-run":           append(append([]byte{0, 0}, one...), append([]byte{0, 4}, one...)...),
		"truncated-varint":   {0x80},
		"truncated-literal":  append([]byte{2}, one...),
		"trailing-byte":      append(append([]byte{0, 4}, one...), 0),
	} {
		if _, err := decodeVoxels(p, 4); !errors.Is(err, errCorruptPayload) {
			f.Fatalf("%s: decoded with error %v, want errCorruptPayload", name, err)
		}
		f.Add(p, uint16(4))
	}

	f.Fuzz(func(t *testing.T, payload []byte, n16 uint16) {
		n := int(n16%1024) + 1
		got, err := decodeVoxels(payload, n)
		if err != nil {
			if !errors.Is(err, errCorruptPayload) {
				t.Fatalf("refused with %v, want errCorruptPayload wrapped", err)
			}
			return
		}
		poisoned := bytes.Repeat([]byte{0xa5}, 4*n)
		if err := decodeRuns(poisoned, payload); err != nil {
			t.Fatal(err)
		}
		for i, s := range got {
			if binary.LittleEndian.Uint32(poisoned[i*4:]) != math.Float32bits(s) {
				t.Fatalf("voxel %d not written by the decoder", i)
			}
		}
		for _, bad := range []struct {
			p []byte
			n int
		}{
			{payload, n + 1},
			{payload, n - 1},
			{append(bytes.Clone(payload), 0), n},
			{payload[:len(payload)-1], n},
		} {
			if _, err := decodeVoxels(bad.p, bad.n); bad.n > 0 && err == nil {
				t.Fatalf("%d-byte payload of %d voxels also decodes %d bytes to %d voxels", len(payload), n, len(bad.p), bad.n)
			}
		}
		enc := appendRuns(nil, got)
		if int64(len(enc)) > v2MaxStored(4*int64(n)) {
			t.Fatalf("re-encoded %d voxels in %d bytes, over v2MaxStored %d", n, len(enc), v2MaxStored(4*int64(n)))
		}
		again, err := decodeVoxels(enc, n)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		for i := range got {
			if math.Float32bits(again[i]) != math.Float32bits(got[i]) {
				t.Fatalf("voxel %d: %#x re-encodes to %#x", i, math.Float32bits(got[i]), math.Float32bits(again[i]))
			}
		}
	})
}
