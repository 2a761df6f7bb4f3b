package volume

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// faultFile is a PagedSource's file with a hook on every read: tests
// count ReadAt calls through it and inject the faults a disk can produce.
type faultFile struct {
	inner interface {
		io.ReaderAt
		io.Closer
	}
	reads atomic.Int64
	// fault, when set, sees each finished read and returns what the pager
	// is to see instead.
	fault func(p []byte, off int64, n int, err error) (int, error)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	n, err := f.inner.ReadAt(p, off)
	if f.fault != nil {
		return f.fault(p, off, n, err)
	}
	return n, err
}

func (f *faultFile) Close() error { return f.inner.Close() }

// openFaulty opens path with its file behind a faultFile.
func openFaulty(t testing.TB, path string, cache *StagingCache) (*PagedSource, *faultFile) {
	t.Helper()
	ps, err := OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	ff := &faultFile{inner: ps.f}
	ps.f = ff
	ps.SetCache(cache)
	return ps, ff
}

// fillBits fills r from src and returns the voxels' bit patterns.
func fillBits(t testing.TB, src Source, r Region) []uint32 {
	t.Helper()
	dst := make([]float32, r.Ext.Voxels())
	if err := src.Fill(r, dst); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(dst))
	for i, v := range dst {
		out[i] = math.Float32bits(v)
	}
	return out
}

// rewriteV2 decodes the header of the v2 file at path, lets edit change
// it — and the payload of the last brick, which ends the file — and
// writes the file back.
func rewriteV2(t *testing.T, path string, edit func(h *v2Header, lastPayload []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := decodeV2Header(data)
	if err != nil {
		t.Fatal(err)
	}
	last := &h.dir[len(h.dir)-1]
	payload := edit(&h, data[last.off:])
	last.stored = uint64(len(payload))
	out := append(append([]byte{}, data[:last.off]...), payload...)
	copy(out, encodeV2Header(h))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// constantBrickVolume is 8³ in eight 4³ file bricks: brick 0 random,
// brick 7 alternating +0/-0 (so its directory lo == hi), the rest filled
// with the value of bit pattern bits.
func constantBrickVolume(bits uint32) *Volume {
	v := New(Cube(8))
	r := rand.New(rand.NewSource(5))
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				val := math.Float32frombits(bits)
				switch {
				case x < 4 && y < 4 && z < 4:
					val = r.Float32()
				case x >= 4 && y >= 4 && z >= 4:
					val = math.Float32frombits(uint32(x+y+z) % 2 << 31)
				}
				v.Set(x, y, z, val)
			}
		}
	}
	return v
}

// TestConstantPagesFillSameBits: a Fill served from directory constants
// writes the bits a decoding Fill would — for +0, -0 and an ordinary
// value, run-length coded and raw — with no read, no cache entry and no
// budget.
// The writer compares bits, not values: the brick mixing +0 with -0,
// whose directory says lo == hi, is stored dense. A file whose dense
// payloads a foreign writer filled with one NaN pattern pages as dense,
// with the same bits.
func TestConstantPagesFillSameBits(t *testing.T) {
	const nanBits = 0x7fc12345
	for _, bits := range []uint32{0, 1 << 31, nanBits, math.Float32bits(3.25)} {
		for _, compress := range []bool{true, false} {
			if bits == nanBits && compress {
				continue // the NaN payloads are patched into the file in place: raw only
			}
			// "runs=" labels the Compress option: run-length coded payloads.
			t.Run(fmt.Sprintf("%#x/runs=%v", bits, compress), func(t *testing.T) {
				v := constantBrickVolume(bits)
				path := t.TempDir() + "/c.gvmr"
				src, constants := v, 6
				if bits == nanBits {
					// WriteFileV2 refuses NaN: write noise in its place and swap
					// the payloads' bits afterwards.
					src, constants = New(v.Dims), 0
					r := rand.New(rand.NewSource(7))
					for i, s := range v.Data {
						if s != s {
							s = r.Float32()
						}
						src.Data[i] = s
					}
				}
				if err := WriteFileV2(path, NewVolumeSource(src, "c"), V2Options{BrickEdge: 4, Compress: compress}); err != nil {
					t.Fatal(err)
				}
				if bits == nanBits {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					h, _, err := decodeV2Header(data)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range h.dir[1:7] {
						for o := e.off; o < e.off+e.stored; o += 4 {
							copy(data[o:], []byte{0x45, 0x23, 0xc1, 0x7f})
						}
					}
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want := make([]uint32, len(v.Data))
				for i, s := range v.Data {
					want[i] = math.Float32bits(s)
				}

				cache := NewStagingCache(1 << 20)
				ps, ff := openFaulty(t, path, cache)
				for i, e := range ps.hdr.dir {
					if e.constant() != (constants > 0 && i >= 1 && i <= 6) {
						t.Errorf("brick %d constant = %v", i, e.constant())
					}
				}
				if e := ps.hdr.dir[7]; e.lo != e.hi {
					t.Fatalf("the ±0 brick's directory range is [%v, %v]: the test no longer tests lo == hi", e.lo, e.hi)
				}
				whole := Region{Ext: v.Dims}
				dense := int64(8 - constants)
				first := fillBits(t, ps, whole)
				st := ps.Stats()
				if st.BrickReads != dense || ff.reads.Load() != dense {
					t.Errorf("first fill decoded %d bricks in %d ReadAt calls, want %d", st.BrickReads, ff.reads.Load(), dense)
				}
				second := fillBits(t, ps, whole)
				if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
					t.Fatal("fill bits differ from the source volume's")
				}
				if n := ff.reads.Load() - dense; n != 0 {
					t.Errorf("second fill made %d ReadAt calls, want 0", n)
				}
				if got := ps.Stats().ConstantFills; got != 2*int64(constants) {
					t.Errorf("two fills served %d pages from constants, want %d", got, 2*constants)
				}
				// Only the dense pages hold budget.
				if cs := cache.Stats(); cs.BytesInUse != dense*Cube(4).Bytes() {
					t.Errorf("cache holds %d bytes, want %d pages (%d)", cs.BytesInUse, dense, dense*Cube(4).Bytes())
				}
				// A sub-region crossing constant and dense bricks, uncached.
				ps.SetCache(nil)
				r := Region{Org: [3]int{2, 1, 3}, Ext: Dims{5, 6, 4}}
				if !reflect.DeepEqual(fillBits(t, ps, r), fillBits(t, NewVolumeSource(v, "c"), r)) {
					t.Error("uncached sub-region fill differs")
				}
			})
		}
	}
}

// TestPagerDiskFaults: a failed read of a dense page — an I/O error, a
// short read, a corrupt run-length payload, a payload decoding to fewer
// or more voxels than the core holds — is an error that names the brick
// and wraps its cause; the page is not retained, the brick is not marked
// loaded, and the pooled scratch serves the next good read of the same
// brick with the right bits.
func TestPagerDiskFaults(t *testing.T) {
	v := randomVolume(rand.New(rand.NewSource(11)), Dims{8, 4, 4}) // two dense bricks
	ref := NewVolumeSource(v, "faults")
	whole := Region{Ext: v.Dims}
	boom := errors.New("injected I/O error")

	for _, tc := range []struct {
		name  string
		fault func(p []byte, off int64, n int, err error) (int, error)
		check func(err error) bool
	}{
		{"io-error", func(p []byte, _ int64, _ int, _ error) (int, error) { return 0, boom },
			func(err error) bool { return errors.Is(err, boom) }},
		{"short-read-eof", func(p []byte, _ int64, n int, _ error) (int, error) { return n / 2, io.EOF },
			func(err error) bool { return errors.Is(err, io.EOF) }},
		{"short-read-silent", func(p []byte, _ int64, n int, _ error) (int, error) { return n - 1, nil },
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"corrupt-runs", func(p []byte, _ int64, n int, err error) (int, error) {
			p[0] = 0x7f // 127 literals in a 64-voxel core
			return n, err
		}, func(err error) bool { return errors.Is(err, errCorruptPayload) }},
	} {
		for _, brick := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/brick%d", tc.name, brick), func(t *testing.T) {
				path := t.TempDir() + "/f.gvmr"
				if err := WriteFileV2(path, ref, V2Options{BrickEdge: 4, Compress: true}); err != nil {
					t.Fatal(err)
				}
				cache := NewStagingCache(1 << 20)
				ps, ff := openFaulty(t, path, cache)
				target := int64(ps.hdr.dir[brick].off)
				ff.fault = func(p []byte, off int64, n int, err error) (int, error) {
					if off != target {
						return n, err
					}
					return tc.fault(p, off, n, err)
				}
				err := ps.Fill(whole, make([]float32, whole.Ext.Voxels()))
				if err == nil || !tc.check(err) {
					t.Fatalf("got %v, want the injected cause wrapped", err)
				}
				if want := fmt.Sprintf("brick %d of %s", brick, path); !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
				if ps.loaded[brick].Load() {
					t.Error("failed brick is marked loaded")
				}
				for _, e := range cache.Entries() {
					if e.Key == ps.pages[brick] {
						t.Error("failed page is in the cache")
					}
				}
				ff.fault = nil
				if !reflect.DeepEqual(fillBits(t, ps, whole), fillBits(t, ref, whole)) {
					t.Error("good read after the fault returned wrong bits")
				}
			})
		}
	}

	for _, tc := range []struct {
		name  string
		delta int // voxels the last brick's payload decodes to, relative to its core
	}{{"short-payload", -1}, {"trailing-payload", +1}} {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/f.gvmr"
			if err := WriteFileV2(path, ref, V2Options{BrickEdge: 4, Compress: true}); err != nil {
				t.Fatal(err)
			}
			var good []byte
			rewriteV2(t, path, func(_ *v2Header, last []byte) []byte {
				good = bytes.Clone(last)
				core, err := decodeVoxels(last, 64)
				if err != nil {
					t.Fatal(err)
				}
				// The extra voxel repeats the last: the payload keeps its
				// length, within the directory's bound, and runs one past.
				return appendRuns(nil, append(core, core[63])[:64+tc.delta])
			})
			ps, _ := openFaulty(t, path, NewStagingCache(1<<20))
			err := ps.Fill(whole, make([]float32, whole.Ext.Voxels()))
			if !errors.Is(err, errCorruptPayload) || !strings.Contains(err.Error(), "brick 1 of "+path) {
				t.Fatalf("got %v, want the corrupt-payload error naming brick 1", err)
			}
			if ps.loaded[1].Load() {
				t.Error("failed brick is marked loaded")
			}
			ps.Close()
			rewriteV2(t, path, func(*v2Header, []byte) []byte { return good })
			ps, _ = openFaulty(t, path, NewStagingCache(1<<20))
			if !reflect.DeepEqual(fillBits(t, ps, whole), fillBits(t, ref, whole)) {
				t.Error("restored file returned wrong bits")
			}
		})
	}
}

// planFixture is a dense 16×4×4 volume in four 4³ file bricks, with one
// "render brick" region per file brick.
func planFixture(t *testing.T, cache *StagingCache) (*PagedSource, *faultFile, []Region) {
	t.Helper()
	path, _ := writeV2(t, 23, Dims{16, 4, 4}, V2Options{BrickEdge: 4, Compress: true})
	ps, ff := openFaulty(t, path, cache)
	var regions []Region
	for _, b := range ps.BrickGrid().Bricks {
		regions = append(regions, b.Core)
	}
	return ps, ff, regions
}

// TestPlanFrameEvictsSpentPagesFirst: four pages cycled through a cache
// of three is LRU's worst case — every touch a miss. With each frame
// planned, a page whose planned use is spent is the next victim, so most
// of the set survives from frame to frame. The fills return the same
// bits either way.
func TestPlanFrameEvictsSpentPagesFirst(t *testing.T) {
	reads := func(planned bool) int64 {
		// Three pages, plus the plan's four (one-cell) macrocell grids.
		ps, _, regions := planFixture(t, NewStagingCache(3*Cube(4).Bytes()+4*MacrocellBytes(Cube(4))))
		ref := fillBits(t, ps, Region{Ext: ps.Dims()})
		base := ps.Stats().BrickReads
		for frame := 0; frame < 5; frame++ {
			done := func() {}
			if planned {
				done = ps.PlanFrame(regions)
			}
			var got []uint32
			for _, r := range regions {
				got = append(got, fillBits(t, ps, r)...)
			}
			done()
			// The regions tile x in order and span y and z: row-major per region.
			for i, r := range regions {
				for j := 0; j < 64; j++ {
					x, yz := j%4, j/4
					if got[i*64+j] != ref[yz*16+r.Org[0]+x] {
						t.Fatalf("planned=%v frame %d region %d voxel %d differs", planned, frame, i, j)
					}
				}
			}
			if uses, plans := PlannedUses(ps); uses != 0 || plans != 0 {
				t.Fatalf("after frame %d: %d planned uses, %d plans left", frame, uses, plans)
			}
		}
		return ps.Stats().BrickReads - base
	}
	lru, planned := reads(false), reads(true)
	if lru != 20 {
		t.Errorf("unplanned cycle read %d bricks, want 20 (every touch a miss)", lru)
	}
	if planned > 10 {
		t.Errorf("planned cycle read %d bricks, want at most 10 (unplanned: %d)", planned, lru)
	}
}

// TestPaidPlanDoneKeepsSpentOrder: the Fills of a fully paid plan demote
// its pages in the order their uses were spent, and done leaves that
// order alone — it once demoted every page of the plan again, in map
// order, and the next frame evicted by that order instead.
func TestPaidPlanDoneKeepsSpentOrder(t *testing.T) {
	ps, _, regions := planFixture(t, NewStagingCache(1<<20))
	order := func() []string {
		var keys []string
		for _, e := range ps.cache.Entries() {
			keys = append(keys, e.Key.name)
		}
		return keys
	}
	for frame := 0; frame < 8; frame++ {
		done := ps.PlanFrame(regions)
		for _, r := range regions {
			fillBits(t, ps, r)
		}
		spent := order()
		done()
		if got := order(); !reflect.DeepEqual(got, spent) {
			t.Fatalf("frame %d: done reordered the cache\n from %q\n   to %q", frame, spent, got)
		}
	}
}

// TestPlanFrameCountsDrain: planned counts add across concurrent plans
// and return to zero however a job ends — every Fill made, some skipped,
// a Fill failing half way, done called twice, a Fill nobody planned.
func TestPlanFrameCountsDrain(t *testing.T) {
	ps, ff, regions := planFixture(t, NewStagingCache(1<<20))
	a, b := ps.PlanFrame(regions), ps.PlanFrame(regions[:2])
	if uses, plans := PlannedUses(ps); uses != 6 || plans != 2 {
		t.Fatalf("two plans: %d uses, %d plans, want 6 and 2", uses, plans)
	}
	fillBits(t, ps, regions[0])
	fillBits(t, ps, regions[0])
	fillBits(t, ps, regions[0]) // a third Fill of a region planned twice: unplanned
	if uses, _ := PlannedUses(ps); uses != 4 {
		t.Fatalf("after both planned fills of region 0: %d uses, want 4", uses)
	}
	b() // b leaves region 1 unfilled: a cancelled job
	b()
	if uses, plans := PlannedUses(ps); uses != 3 || plans != 1 {
		t.Fatalf("after the cancelled plan: %d uses, %d plans, want 3 and 1", uses, plans)
	}
	// A region spanning two pages whose second page fails: both drain.
	a()
	wide := Region{Org: regions[1].Org, Ext: Dims{8, 4, 4}}
	c := ps.PlanFrame([]Region{wide})
	ps.cache.Flush()
	ff.fault = func(p []byte, off int64, n int, err error) (int, error) {
		if off == int64(ps.hdr.dir[2].off) {
			return 0, io.ErrClosedPipe
		}
		return n, err
	}
	if err := ps.Fill(wide, make([]float32, wide.Ext.Voxels())); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("got %v, want the injected error", err)
	}
	if uses, _ := PlannedUses(ps); uses != 0 {
		t.Fatalf("after a failed planned fill: %d uses, want 0", uses)
	}
	c()
	if uses, plans := PlannedUses(ps); uses != 0 || plans != 0 {
		t.Fatalf("at rest: %d uses, %d plans", uses, plans)
	}
}

// TestKeptMacrocellsMatchFreshBuild: under a plan every brick's Cells()
// is a grid kept in the staging cache — deeply equal to a fresh
// BuildMacrocells over the brick's own ghost data, the same pointer on
// the next frame, rebuilt (equal again) after the cache dropped it, and
// charged to the budget. Outside a plan, and with no cache, nothing is
// kept and the grid is still right.
func TestKeptMacrocellsMatchFreshBuild(t *testing.T) {
	path, _ := writeV2(t, 29, Dims{19, 14, 11}, V2Options{BrickEdge: 4, Compress: true})
	cache := NewStagingCache(1 << 20)
	ps, _ := openFaulty(t, path, cache)
	grid, err := MakeGrid(ps.Dims(), [3]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	var ghosts []Region
	var gridBytes int64
	for _, b := range grid.Bricks {
		ghosts = append(ghosts, b.Ghost)
		gridBytes += MacrocellBytes(b.Ghost.Ext)
	}
	frame := func(plan bool) []*Macrocells {
		t.Helper()
		done := func() {}
		if plan {
			done = ps.PlanFrame(ghosts)
		}
		defer done()
		var out []*Macrocells
		var wg sync.WaitGroup
		for _, b := range grid.Bricks {
			bd, err := FillBrick(ps, b)
			if err != nil {
				t.Fatal(err)
			}
			// Two concurrent first uses of one brick's grid agree on a pointer.
			var twin *Macrocells
			wg.Add(1)
			go func() { defer wg.Done(); twin = bd.Cells() }()
			mc := bd.Cells()
			wg.Wait()
			if twin != mc {
				t.Fatalf("brick %d: concurrent Cells() disagree", b.ID)
			}
			if fresh := BuildMacrocells(bd.Data, b.Ghost.Ext, b.Ghost.Org); !reflect.DeepEqual(mc, fresh) {
				t.Fatalf("brick %d: kept grid differs from a fresh build", b.ID)
			}
			out = append(out, mc)
		}
		return out
	}
	first := frame(true)
	pageBytes := cache.Stats().BytesInUse - gridBytes
	if pageBytes <= 0 || pageBytes%4 != 0 {
		t.Fatalf("cache holds %d bytes with %d of grids: the grids are not charged", cache.Stats().BytesInUse, gridBytes)
	}
	second := frame(true)
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("brick %d: second frame built a new grid", i)
		}
	}
	cache.Flush() // evicted
	third := frame(true)
	again := frame(true)
	for i := range first {
		if third[i] == first[i] {
			t.Errorf("brick %d: grid survived the flush: not evictable", i)
		}
		if third[i] != again[i] {
			t.Errorf("brick %d: rebuilt grid not kept", i)
		}
	}
	unplanned := frame(false)
	ps.SetCache(nil)
	uncached := frame(true)
	for i := range first {
		if unplanned[i] == again[i] || uncached[i] == again[i] {
			t.Errorf("brick %d: a grid was kept outside a plan or without a cache", i)
		}
	}
}

// pageReadFixture writes a 72³ analytic blob — dense inside a ball,
// exactly zero outside — as run-length coded 18³ bricks, and returns the
// pager with a dense brick and a directory constant.
func pageReadFixture(tb testing.TB) (ps *PagedSource, ff *faultFile, dense, constant int) {
	tb.Helper()
	src := fieldSource("blob", Cube(72), func(x, y, z float64) float32 {
		r := math.Sqrt((x-.5)*(x-.5) + (y-.5)*(y-.5) + (z-.5)*(z-.5))
		return float32(math.Max(0, 0.4-r) * (1 + 0.1*math.Sin(40*x)*math.Sin(31*y)))
	})
	path := tb.TempDir() + "/blob.gvmr"
	if err := WriteFileV2(path, src, V2Options{BrickEdge: 18, Compress: true}); err != nil {
		tb.Fatal(err)
	}
	ps, ff = openFaulty(tb, path, NewStagingCache(1<<20))
	dense, constant = (1*4+1)*4+1, 0 // a centre brick, a corner brick
	if ps.hdr.dir[dense].constant() || !ps.hdr.dir[constant].constant() {
		tb.Fatal("fixture: want a dense centre brick and a constant corner")
	}
	return ps, ff, dense, constant
}

// BenchmarkPageRead is one file-brick page-in: /dense reads and decodes
// an 18³ run-length coded brick (-benchmem: the page itself is the only
// allocation, TestPageReadAllocs holds it), /constant is a page use
// served from a directory constant (reads/op must be 0).
func BenchmarkPageRead(b *testing.B) {
	ps, ff, dense, constant := pageReadFixture(b)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ps.readPage(dense); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("constant", func(b *testing.B) {
		reads := ff.reads.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if data, _, err := ps.page(constant); err != nil || data != nil {
				b.Fatal("not served as a constant", err)
			}
		}
		b.ReportMetric(float64(ff.reads.Load()-reads)/float64(b.N), "reads/op")
	})
}

// TestReadPageDecodeLoop: the decode loop a big-endian host runs yields
// the bits the little-endian in-place read does, for run-length coded and
// raw files.
func TestReadPageDecodeLoop(t *testing.T) {
	defer func(le bool) { littleEndian = le }(littleEndian)
	for _, compress := range []bool{true, false} {
		path, v := writeV2(t, 31, Dims{9, 8, 7}, V2Options{BrickEdge: 4, Compress: compress})
		ps, _ := openFaulty(t, path, nil)
		for i, b := range ps.BrickGrid().Bricks {
			want := fillBits(t, NewVolumeSource(v, "t"), b.Core)
			for _, le := range []bool{true, false} {
				littleEndian = le
				data, err := ps.readPage(i)
				if err != nil {
					t.Fatal(err)
				}
				for j, s := range data {
					if math.Float32bits(s) != want[j] {
						t.Fatalf("compress=%v little-endian=%v brick %d voxel %d differs", compress, le, i, j)
					}
				}
			}
		}
	}
}

// TestPageReadAllocs holds BenchmarkPageRead's two numbers. A warm dense
// page-in allocates the page and nothing else: the stored bytes go to
// pooled scratch and decode into the page. A constant page use allocates
// nothing and never reaches the file.
func TestPageReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector on: sync.Pool drops Puts at random")
	}
	ps, ff, dense, constant := pageReadFixture(t)
	read := func() {
		if _, err := ps.readPage(dense); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if n := testing.AllocsPerRun(50, read); n != 1 {
		t.Errorf("%v allocs per warm dense page read, want 1: the page", n)
	}
	reads := ff.reads.Load()
	if n := testing.AllocsPerRun(50, func() {
		if data, _, err := ps.page(constant); err != nil || data != nil {
			t.Fatal("not served as a constant", err)
		}
	}); n != 0 {
		t.Errorf("%v allocs per constant page use, want 0", n)
	}
	if n := ff.reads.Load() - reads; n != 0 {
		t.Errorf("%d ReadAt calls serving a constant page, want 0", n)
	}
}
