package volume

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Tests of the volume file as a file: what the writer records, and what
// the opener refuses before any brick is read.

// sparseVolume is a random 9×8×7 volume over 27 file bricks of edge 3
// whose every third brick holds one bit pattern (+0, -0 or 3.25) and
// whose brick 1 mixes +0 with -0 — one value, two bit patterns. It
// returns the volume and which bricks are constant.
func sparseVolume(t testing.TB, seed int64) (*Volume, []bool) {
	t.Helper()
	d := Dims{9, 8, 7}
	v := randomVolume(rand.New(rand.NewSource(seed)), d)
	grid, err := MakeGrid(d, [3]int{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	patterns := []float32{0, float32(math.Copysign(0, -1)), 3.25}
	constant := make([]bool, grid.NumBricks())
	for _, b := range grid.Bricks {
		constant[b.ID] = b.ID%3 == 0
		c, e := b.Core, b.Core.End()
		for z := c.Org[2]; z < e[2]; z++ {
			for y := c.Org[1]; y < e[1]; y++ {
				for x := c.Org[0]; x < e[0]; x++ {
					switch {
					case constant[b.ID]:
						v.Set(x, y, z, patterns[b.ID/3%3])
					case b.ID == 1:
						v.Set(x, y, z, math.Float32frombits(uint32(x+y+z)%2<<31))
					}
				}
			}
		}
	}
	return v, constant
}

// randomRegion is a non-empty region inside d.
func randomRegion(r *rand.Rand, d Dims) Region {
	var reg Region
	for a, n := range [3]int{d.X, d.Y, d.Z} {
		reg.Org[a] = r.Intn(n)
	}
	reg.Ext = Dims{
		X: 1 + r.Intn(d.X-reg.Org[0]),
		Y: 1 + r.Intn(d.Y-reg.Org[1]),
		Z: 1 + r.Intn(d.Z-reg.Org[2]),
	}
	return reg
}

// TestFileRoundTrip: a sparse volume written raw and run-length coded reads back
// bit for bit. The directory records as constant exactly the bricks whose
// cores hold one bit pattern — the ±0 brick stays dense — and the file
// holds payload bytes for the dense bricks only.
func TestFileRoundTrip(t *testing.T) {
	v, constant := sparseVolume(t, 53)
	for _, compress := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "vol.gvmr")
		if err := WriteFileV2(path, NewVolumeSource(v, "t"), V2Options{BrickEdge: 3, Compress: compress}); err != nil {
			t.Fatal(err)
		}
		ps, err := OpenFileV2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		ps.SetCache(nil)
		whole := Region{Ext: v.Dims}
		if !reflect.DeepEqual(fillBits(t, ps, whole), fillBits(t, NewVolumeSource(v, "t"), whole)) {
			t.Fatalf("compress=%v: read-back bits differ", compress)
		}
		size := int64(ps.hdr.headerLen())
		var dense int64
		for i, e := range ps.hdr.dir {
			if e.constant() != constant[i] {
				t.Errorf("compress=%v brick %d: constant = %v", compress, i, e.constant())
			}
			size += int64(e.stored)
			if !constant[i] {
				dense += ps.grid.Bricks[i].Core.Ext.Bytes()
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Errorf("compress=%v: file is %d bytes, header + payloads = %d", compress, fi.Size(), size)
		}
		if raw := size - int64(ps.hdr.headerLen()); !compress && raw != dense {
			t.Errorf("raw payloads hold %d bytes, the dense cores %d", raw, dense)
		}
	}
}

// TestFileRegionRead: regions crossing constant and dense bricks fill
// with the source's bits, through a cache and without one.
func TestFileRegionRead(t *testing.T) {
	v, _ := sparseVolume(t, 59)
	path := filepath.Join(t.TempDir(), "vol.gvmr")
	if err := WriteFileV2(path, NewVolumeSource(v, "t"), V2Options{BrickEdge: 3}); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.SetCache(NewStagingCache(1 << 20))
	ref := NewVolumeSource(v, "t")
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		if trial == 20 {
			ps.SetCache(nil)
		}
		reg := randomRegion(r, v.Dims)
		if !reflect.DeepEqual(fillBits(t, ps, reg), fillBits(t, ref, reg)) {
			t.Fatalf("trial %d region %+v: bits differ", trial, reg)
		}
	}
	if ps.Stats().ConstantFills == 0 {
		t.Error("no fill was served from a directory constant")
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.gvmr")
	if err := os.WriteFile(path, bytes.Repeat([]byte("NOTAVOLUME"), 8), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileV2(path); err == nil || !strings.Contains(err.Error(), "not a GVMR") {
		t.Errorf("garbage file: %v", err)
	}
	if _, err := OpenFileV2(filepath.Join(dir, "missing.gvmr")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOpenFileRejectsTruncatedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.gvmr")
	if err := os.WriteFile(path, []byte("GV"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileV2(path); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestOpenFileRejectsTruncatedBody(t *testing.T) {
	path, _ := writeV2(t, 61, Dims{6, 5, 4}, V2Options{BrickEdge: 4})
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := int64(v2FixedHeaderSize + 4*v2DirEntrySize) // 2×2×1 bricks
	for _, cut := range []int64{1, 17, fi.Size() - hdrLen - 1} {
		if err := os.Truncate(path, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileV2(path); err == nil {
			t.Errorf("file truncated by %d bytes accepted at open", cut)
		}
	}
}

func TestOpenFileRejectsTrailingBytes(t *testing.T) {
	path, _ := writeV2(t, 67, Cube(4), V2Options{})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileV2(path); err == nil || !strings.Contains(err.Error(), "accounts for") {
		t.Errorf("file with a trailing byte: %v", err)
	}
}

func TestOpenFileRejectsHostileDims(t *testing.T) {
	path, _ := writeV2(t, 71, Cube(4), V2Options{}) // one brick
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, dims := range map[string][3]uint64{
		"zero":        {0, 4, 4},
		"huge-axis":   {1 << 40, 4, 4},
		"max-uint64":  {^uint64(0), ^uint64(0), ^uint64(0)},
		"overflowing": {1 << 31, 1 << 31, 1 << 31}, // per-axis legal, the brick's size overflows
	} {
		b := bytes.Clone(good)
		for a, n := range dims {
			binary.LittleEndian.PutUint64(b[8+8*a:], n)
		}
		p := filepath.Join(t.TempDir(), name+".gvmr")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileV2(p); err == nil {
			t.Errorf("%s: hostile dims %v accepted at open", name, dims)
		}
	}
}

// failingFile wraps a real file and injects Sync/Close failures — the
// write-path errors a deferred Close would swallow.
type failingFile struct {
	*os.File
	syncErr, closeErr error
}

func (f *failingFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

func (f *failingFile) Close() error {
	err := f.File.Close()
	if f.closeErr != nil {
		return f.closeErr
	}
	return err
}

func TestWriteFileReportsCloseAndSyncErrors(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	src := NewVolumeSource(randomVolume(r, Dims{5, 4, 3}), "t")
	errSync := errors.New("injected sync failure")
	errClose := errors.New("injected close failure")
	t.Run("v2", func(t *testing.T) {
		for _, fail := range []struct {
			name string
			mk   func(f *os.File) *failingFile
			want error
		}{
			{"sync", func(f *os.File) *failingFile { return &failingFile{File: f, syncErr: errSync} }, errSync},
			{"close", func(f *os.File) *failingFile { return &failingFile{File: f, closeErr: errClose} }, errClose},
		} {
			f, err := os.Create(filepath.Join(t.TempDir(), "vol.gvmr"))
			if err != nil {
				t.Fatal(err)
			}
			fw := fail.mk(f)
			if err := finishFile(fw, writeFileV2(fw, src, V2Options{BrickEdge: 2})); !errors.Is(err, fail.want) {
				t.Errorf("%s: finishFile error = %v, want %v", fail.name, err, fail.want)
			}
		}
	})
}

// TestWriteFileV2FailureKeepsOldFile: a rewrite that fails part way
// leaves the old file whole and nothing else beside it.
func TestWriteFileV2FailureKeepsOldFile(t *testing.T) {
	path, v := writeV2(t, 73, Cube(8), V2Options{BrickEdge: 4})
	bad := randomVolume(rand.New(rand.NewSource(79)), Cube(8))
	bad.Set(7, 7, 7, float32(math.NaN())) // the last brick: every payload before it is written
	if err := WriteFileV2(path, NewVolumeSource(bad, "nan"), V2Options{BrickEdge: 4}); err == nil {
		t.Fatal("a volume holding NaN was written")
	}
	if names, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(names) != 1 {
		t.Errorf("after a failed rewrite the directory holds %v, want the old file alone", names)
	}
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	whole := Region{Ext: v.Dims}
	if !reflect.DeepEqual(fillBits(t, ps, whole), fillBits(t, NewVolumeSource(v, "t"), whole)) {
		t.Error("the old file no longer holds the old volume")
	}
}

// TestOpenVolumeAutoDetectsVersion: the opener reads the version field and
// accepts the bricked format alone. A file of the retired flat version 1
// is refused with an error naming its version.
func TestOpenVolumeAutoDetectsVersion(t *testing.T) {
	path, _ := writeV2(t, 113, Cube(6), V2Options{BrickEdge: 4})
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	ps.Close()
	flat := make([]byte, 32+Cube(6).Bytes()) // magic, version, dims, samples
	copy(flat, fileMagic)
	binary.LittleEndian.PutUint32(flat[4:], 1)
	for a := 0; a < 3; a++ {
		binary.LittleEndian.PutUint64(flat[8+8*a:], 6)
	}
	v1 := filepath.Join(t.TempDir(), "v1.gvmr")
	if err := os.WriteFile(v1, flat, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileV2(v1); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("flat v1 file: %v, want an error naming version 1", err)
	}
}
