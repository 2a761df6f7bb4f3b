package volume

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeV2 writes a random volume to a v2 file and returns both.
func writeV2(t *testing.T, seed int64, d Dims, opts V2Options) (string, *Volume) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vol.gvmr")
	v := randomVolume(rand.New(rand.NewSource(seed)), d)
	if err := WriteFileV2(path, NewVolumeSource(v, "t"), opts); err != nil {
		t.Fatal(err)
	}
	return path, v
}

func TestFileV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts V2Options
	}{
		{"raw", V2Options{BrickEdge: 4}},
		{"runs", V2Options{BrickEdge: 4, Compress: true}},
		{"default-edge", V2Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := Dims{13, 11, 9}
			path, v := writeV2(t, 83, d, tc.opts)
			ps, err := OpenFileV2(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			if ps.Dims() != d {
				t.Fatalf("dims = %v, want %v", ps.Dims(), d)
			}
			if ps.hdr.compressed() != tc.opts.Compress {
				t.Fatalf("compressed = %v, want %v", ps.hdr.compressed(), tc.opts.Compress)
			}
			got, err := Materialize(ps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range v.Data {
				if got.Data[i] != v.Data[i] {
					t.Fatalf("sample %d = %v, want %v", i, got.Data[i], v.Data[i])
				}
			}
		})
	}
}

// TestWriteFileV2RejectsNaN: a NaN has no min/max, so the writer used to
// record a directory entry no reader accepts (NaN first in a brick) or
// bounds the brick does not honour (NaN later). It fails the write
// instead, naming the brick.
func TestWriteFileV2RejectsNaN(t *testing.T) {
	for name, at := range map[string][3]int{
		"first voxel of brick 1": {4, 0, 0},
		"mid-brick 1":            {6, 1, 2},
	} {
		v := randomVolume(rand.New(rand.NewSource(5)), Dims{8, 8, 8})
		v.Set(at[0], at[1], at[2], float32(math.NaN()))
		path := filepath.Join(t.TempDir(), "nan.gvmr")
		err := WriteFileV2(path, NewVolumeSource(v, "nan"), V2Options{BrickEdge: 4})
		if err == nil || !strings.Contains(err.Error(), "brick 1 holds NaN") {
			t.Errorf("%s: WriteFileV2 = %v, want an error naming brick 1", name, err)
		}
	}
}

func TestFileV2RegionFill(t *testing.T) {
	d := Dims{17, 10, 12}
	path, v := writeV2(t, 89, d, V2Options{BrickEdge: 5, Compress: true})
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 50; trial++ {
		reg := randomRegion(r, d)
		dst := make([]float32, reg.Ext.Voxels())
		if err := ps.Fill(reg, dst); err != nil {
			t.Fatal(err)
		}
		i, e := 0, reg.End()
		for z := reg.Org[2]; z < e[2]; z++ {
			for y := reg.Org[1]; y < e[1]; y++ {
				for x := reg.Org[0]; x < e[0]; x++ {
					if dst[i] != v.At(x, y, z) {
						t.Fatalf("trial %d region %+v: mismatch at (%d,%d,%d)", trial, reg, x, y, z)
					}
					i++
				}
			}
		}
	}
	if err := ps.Fill(Region{Org: [3]int{15, 0, 0}, Ext: Dims{4, 1, 1}}, make([]float32, 4)); err == nil {
		t.Error("out-of-bounds region accepted")
	}
}

func TestFileV2RegionRangeBounds(t *testing.T) {
	d := Dims{12, 12, 12}
	path, v := writeV2(t, 101, d, V2Options{BrickEdge: 4})
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 50; trial++ {
		reg := randomRegion(r, d)
		lo, hi, ok := ps.RegionRange(reg)
		if !ok {
			t.Fatalf("trial %d: no range for %+v", trial, reg)
		}
		e := reg.End()
		for z := reg.Org[2]; z < e[2]; z++ {
			for y := reg.Org[1]; y < e[1]; y++ {
				for x := reg.Org[0]; x < e[0]; x++ {
					if s := v.At(x, y, z); s < lo || s > hi {
						t.Fatalf("trial %d: sample %v at (%d,%d,%d) outside claimed [%v, %v]",
							trial, s, x, y, z, lo, hi)
					}
				}
			}
		}
	}
	// The whole-volume range must be the exact volume min/max: cores tile
	// the volume and each directory entry is the exact core min/max.
	wlo, whi := v.MinMax()
	if lo, hi, ok := ps.RegionRange(Region{Ext: d}); !ok || lo != wlo || hi != whi {
		t.Errorf("whole-volume range = [%v, %v] ok=%v, want exactly [%v, %v]", lo, hi, ok, wlo, whi)
	}
}

// TestFileV2PagingEvictsAndReloads is the streaming acceptance at the
// volume layer: a cache far smaller than the dense volume must still
// serve every fill bit-exactly, with evictions in the cache and reloads
// in the pager proving bricks really cycled through disk.
func TestFileV2PagingEvictsAndReloads(t *testing.T) {
	d := Dims{16, 16, 16}
	path, v := writeV2(t, 107, d, V2Options{BrickEdge: 4, Compress: true})
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	// Budget: a 4³ page costs 4³·4 voxel bytes + its macrocell charge;
	// hold only a handful of the 64 pages.
	pageCost := (cacheKey{dims: Dims{4, 4, 4}}).bytes()
	cache := NewStagingCache(3 * pageCost)
	ps.SetCache(cache)

	grid := ps.BrickGrid()
	if grid.NumBricks() != 64 {
		t.Fatalf("grid has %d bricks, want 64", grid.NumBricks())
	}
	// Two full passes over all bricks: the second pass re-touches bricks
	// the first pass forced out.
	for pass := 0; pass < 2; pass++ {
		for _, b := range grid.Bricks {
			dst := make([]float32, b.Ghost.Ext.Voxels())
			if err := ps.Fill(b.Ghost, dst); err != nil {
				t.Fatal(err)
			}
			i, e := 0, b.Ghost.End()
			for z := b.Ghost.Org[2]; z < e[2]; z++ {
				for y := b.Ghost.Org[1]; y < e[1]; y++ {
					for x := b.Ghost.Org[0]; x < e[0]; x++ {
						if dst[i] != v.At(x, y, z) {
							t.Fatalf("pass %d brick %d: mismatch at (%d,%d,%d)", pass, b.ID, x, y, z)
						}
						i++
					}
				}
			}
		}
	}
	if ev := cache.Stats().Evictions; ev == 0 {
		t.Error("no cache evictions despite cache ≪ volume")
	}
	st := ps.Stats()
	if st.Reloads == 0 {
		t.Error("no pager reloads despite two passes through an undersized cache")
	}
	if st.BrickReads <= int64(grid.NumBricks()) {
		t.Errorf("brick reads %d: expected more than one read per brick", st.BrickReads)
	}
	if st.BytesRead == 0 {
		t.Error("bytes_read not counted")
	}
}

func TestStageBrickSkipUsesDirectoryMinMax(t *testing.T) {
	// A field with a known structure: left half zero, right half ~1, so
	// brick ranges separate cleanly at a 0.5 threshold. The right half
	// varies, so its file bricks are dense: paged, not directory constants.
	d := Dims{16, 8, 8}
	v := New(d)
	for z := 0; z < d.Z; z++ {
		for y := 0; y < d.Y; y++ {
			for x := 8; x < d.X; x++ {
				v.Set(x, y, z, 1+float32(x+y+z)/64)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "vol.gvmr")
	if err := WriteFileV2(path, NewVolumeSource(v, "t"), V2Options{BrickEdge: 4}); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.SetCache(NewStagingCache(1 << 20))

	// Render bricks: one per file brick for easy alignment.
	grid, err := MakeGrid(d, [3]int{4, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	tfEmpty := func(lo, hi float32) bool { return hi < 0.5 }
	var empties, dense int
	for _, b := range grid.Bricks {
		bd, err := StageBrickSkip(ps, b, tfEmpty)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Empty() {
			empties++
			mc := bd.Cells()
			if mc == nil {
				t.Fatalf("empty brick %d has no macrocells", b.ID)
			}
			if mc.Cells != macrocellCounts(b.Ghost.Ext) || mc.Org != b.Ghost.Org {
				t.Errorf("empty brick %d macrocell shape %v@%v, want %v@%v",
					b.ID, mc.Cells, mc.Org, macrocellCounts(b.Ghost.Ext), b.Ghost.Org)
			}
			for i := range mc.Max {
				if !tfEmpty(mc.Min[i], mc.Max[i]) {
					t.Fatalf("empty brick %d cell %d range [%v, %v] not empty under predicate",
						b.ID, i, mc.Min[i], mc.Max[i])
				}
			}
		} else {
			dense++
		}
	}
	// Bricks with ghost layers reaching into the x ≥ 8 half see values ≥
	// 0.5; only the leftmost brick column (cores x ∈ [0,4), ghosts up to
	// x=4) plus the second column cores [4,8) with ghost to x=8... the
	// ghost of column 1 touches x=8 (value 1), so only column 0 skips.
	if empties == 0 {
		t.Error("no bricks skipped via directory min/max")
	}
	if dense == 0 {
		t.Error("every brick skipped — predicate or ranges broken")
	}
	st := ps.Stats()
	if st.SkippedBricks != int64(empties) {
		t.Errorf("pager skip count %d != %d empty stages", st.SkippedBricks, empties)
	}
	// The skipped bricks must have cost zero disk reads beyond the dense
	// stages: every read belongs to a dense brick's page-in.
	if st.BrickReads == 0 || st.BrickReads > int64(dense*8) {
		t.Errorf("brick reads %d implausible for %d dense stages", st.BrickReads, dense)
	}

	// nil predicate (skipping disabled) must stage everything densely.
	bd, err := StageBrickSkip(ps, grid.Bricks[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Empty() {
		t.Error("nil predicate produced an empty brick")
	}
}

func TestOpenFileV2RejectsHostileHeaders(t *testing.T) {
	// Eight raw 4³ bricks: 0–6 dense, 7 constant.
	d := Dims{8, 8, 8}
	v := randomVolume(rand.New(rand.NewSource(109)), d)
	for i := range v.Data {
		if x, y, z := i%8, i/8%8, i/64; x >= 4 && y >= 4 && z >= 4 {
			v.Data[i] = 0.5
		}
	}
	path := filepath.Join(t.TempDir(), "vol.gvmr")
	if err := WriteFileV2(path, NewVolumeSource(v, "t"), V2Options{BrickEdge: 4}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	openMutated := func(name string, mutate func(b []byte) []byte) error {
		p := filepath.Join(dir, name+".gvmr")
		if err := os.WriteFile(p, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		ps, err := OpenFileV2(p)
		if err == nil {
			ps.Close()
		}
		return err
	}
	put32 := func(b []byte, off int, v uint32) []byte {
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	put64 := func(b []byte, off int, v uint64) []byte {
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	constant := v2FixedHeaderSize + 7*v2DirEntrySize
	h, _, err := decodeV2Header(good)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range h.dir {
		if e.constant() != (i == 7) {
			t.Fatalf("fixture brick %d: constant = %v", i, e.constant())
		}
	}
	cases := map[string]func(b []byte) []byte{
		"bad-magic":      func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version":    func(b []byte) []byte { return put32(b, 4, 7) },
		"zero-dim":       func(b []byte) []byte { return put64(b, 8, 0) },
		"huge-dim":       func(b []byte) []byte { return put64(b, 8, 1<<40) },
		"zero-count":     func(b []byte) []byte { return put32(b, 32, 0) },
		"count-over-dim": func(b []byte) []byte { return put32(b, 32, 9) },
		"unknown-flags":  func(b []byte) []byte { return put32(b, 44, 0x80) },
		"flate-flag":     func(b []byte) []byte { return put32(b, 44, v2FlagFlate) },
		"runs-stored-over-bound": func(b []byte) []byte {
			put32(b, 44, v2FlagRuns)
			return put64(b, v2FixedHeaderSize+8, uint64(v2MaxStored(Cube(4).Bytes()))+1)
		},
		"stored-mismatch": func(b []byte) []byte {
			return put64(b, v2FixedHeaderSize+8, 12345)
		},
		"offset-in-header": func(b []byte) []byte {
			return put64(b, v2FixedHeaderSize, 0)
		},
		"offset-past-eof": func(b []byte) []byte {
			return put64(b, v2FixedHeaderSize, uint64(len(b)))
		},
		"min-over-max": func(b []byte) []byte {
			put32(b, v2FixedHeaderSize+16, floatBits(1))
			return put32(b, v2FixedHeaderSize+20, floatBits(0))
		},
		"nan-range": func(b []byte) []byte {
			return put32(b, v2FixedHeaderSize+16, 0x7FC00000)
		},
		"constant-bits-differ": func(b []byte) []byte {
			return put32(b, constant+20, floatBits(0.5)+1)
		},
		"constant-with-offset": func(b []byte) []byte {
			return put64(b, constant, uint64(v2FixedHeaderSize+8*v2DirEntrySize))
		},
		"constant-nan": func(b []byte) []byte {
			put32(b, constant+16, 0x7FC00000)
			return put32(b, constant+20, 0x7FC00000)
		},
		"dense-stored-zero": func(b []byte) []byte {
			return put64(b, v2FixedHeaderSize+8, 0)
		},
		"truncated-fixed":   func(b []byte) []byte { return b[:20] },
		"truncated-dir":     func(b []byte) []byte { return b[:v2FixedHeaderSize+5] },
		"truncated-payload": func(b []byte) []byte { return b[:len(b)-3] },
	}
	for name, mutate := range cases {
		if err := openMutated(name, mutate); err == nil {
			t.Errorf("%s: hostile file accepted", name)
		}
	}
	if err := openMutated("flate-flag", cases["flate-flag"]); err == nil || !strings.Contains(err.Error(), "flate-compressed v2 files are no longer read") {
		t.Errorf("flate-flag: got %v, want the retired flag refused by name", err)
	}
	// The run-length bound is exact: a stored size at it passes the header.
	atBound := put32(append([]byte(nil), good...), 44, v2FlagRuns)
	put64(atBound, v2FixedHeaderSize+8, uint64(v2MaxStored(Cube(4).Bytes())))
	if _, _, err := decodeV2Header(atBound); err != nil {
		t.Errorf("stored size at v2MaxStored refused: %v", err)
	}
	// Control: the unmutated bytes still open.
	if err := openMutated("control", func(b []byte) []byte { return b }); err != nil {
		t.Errorf("control copy rejected: %v", err)
	}
}
