package volume

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The GVMR volume file: bricked, demand-pageable, and sparse by
// construction (DESIGN.md §14). It stands in for the paper's pre-bricked
// volume files on the cluster's disks. Layout:
//
//	offset 0:  "GVMR" magic
//	offset 4:  uint32 version (2)
//	offset 8:  3×uint64 volume dims (x, y, z)
//	offset 32: 3×uint32 brick counts per axis
//	offset 44: uint32 flags (bit 1: run-length payloads; bit 0, once
//	           per-brick flate, is refused)
//	offset 48: brick directory, one 24-byte entry per brick in MakeGrid
//	           order (x-fastest): uint64 payload offset, uint64 stored
//	           byte count, float32 min, float32 max of the brick's core.
//	           A constant brick — one bit pattern in every core voxel —
//	           has offset 0, stored 0, min and max that pattern, and no
//	           payload.
//	offset 48+24N: brick payloads — each dense brick's *core* region
//	           (cores tile the volume exactly; ghost layers are reassembled
//	           from neighbouring cores at page time), little-endian float32
//	           x-fastest, or with bit 1 set run-length coded per brick; the
//	           file ends where the last payload does
//
// A run-length payload is a sequence of segments, each
//
//	uvarint L, L little-endian float32 bit patterns (literals),
//	uvarint R ≥ 1, one bit pattern repeated R times (a run)
//
// and it ends exactly where the core is full. All integers are
// little-endian. The per-brick min/max in the directory is what lets the
// renderer prove a brick invisible under the active transfer function
// without reading its payload at all. Version 1, a flat dump, is no
// longer read.
const (
	fileMagic         = "GVMR"
	fileVersion2      = uint32(2)
	v2FlagFlate       = uint32(1) // retired: refused by name
	v2FlagRuns        = uint32(2)
	v2FixedHeaderSize = 4 + 4 + 3*8 + 3*4 + 4
	v2DirEntrySize    = 8 + 8 + 4 + 4
)

// maxFileDim bounds a single axis read from a file header. Headers are
// untrusted input: a dim must survive the uint64→int conversion on every
// platform and keep X*Y*Z*4 computable in int64 without overflow.
const maxFileDim = 1 << 31

// maxV2Bricks bounds the directory length read from an untrusted header
// (a million bricks of ≥1 voxel each; real files are thousands).
const maxV2Bricks = 1 << 20

// v2Entry is one decoded brick-directory entry.
type v2Entry struct {
	off    uint64  // payload offset from start of file
	stored uint64  // payload byte count as stored (run-length coded if flagged); 0: constant
	lo, hi float32 // exact min/max of the brick's core samples
}

// constant reports whether the entry records a constant brick, whose
// every core voxel has lo's bit pattern.
func (e v2Entry) constant() bool { return e.stored == 0 }

// v2Header is a decoded v2 header: fixed fields plus the brick directory.
type v2Header struct {
	dims   Dims
	counts [3]int
	flags  uint32
	dir    []v2Entry
}

func (h *v2Header) compressed() bool { return h.flags&v2FlagRuns != 0 }

// headerLen returns the total encoded length: fixed header + directory.
func (h *v2Header) headerLen() int {
	return v2FixedHeaderSize + len(h.dir)*v2DirEntrySize
}

// coreExt returns the core extent of brick index (kx,ky,kz) — the same
// near-equal split MakeGrid uses, so directory validation agrees with the
// grid the pager builds.
func (h *v2Header) coreExt(kx, ky, kz int) Dims {
	d := [3]int{h.dims.X, h.dims.Y, h.dims.Z}
	k := [3]int{kx, ky, kz}
	var e [3]int
	for a := 0; a < 3; a++ {
		e[a] = axisSplit(d[a], h.counts[a], k[a]+1) - axisSplit(d[a], h.counts[a], k[a])
	}
	return Dims{e[0], e[1], e[2]}
}

// coreBytes returns the raw payload size of a core extent, or ok == false
// when the product overflows int64 (possible only with hostile dims).
func coreBytes(e Dims) (int64, bool) {
	vox := int64(e.X) * int64(e.Y)
	if e.Z > 0 && vox > math.MaxInt64/int64(e.Z) {
		return 0, false
	}
	vox *= int64(e.Z)
	if vox > math.MaxInt64/4 {
		return 0, false
	}
	return vox * 4, true
}

// v2MaxStored is the largest run-length payload the writer produces for a
// core of raw bytes: one segment of every voxel but the last as literals,
// then the last as a run of one. appendRuns never exceeds it.
func v2MaxStored(raw int64) int64 { return raw + int64(uvarintLen(uint64(raw/4-1))) + 1 }

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// errCorruptPayload is wrapped by every run-length payload the decoder
// refuses.
var errCorruptPayload = errors.New("corrupt run-length payload")

// appendRuns appends the run-length code of data's bit patterns to dst.
// A run of equal patterns becomes a segment's run only where that makes
// the payload shorter than keeping it as literals, so no payload is
// longer than v2MaxStored of its raw size.
func appendRuns(dst []byte, data []float32) []byte {
	start := 0 // data[start:i] are literals not yet written
	for i := 0; i < len(data); {
		pat, r := floatBits(data[i]), 1
		for i+r < len(data) && floatBits(data[i+r]) == pat {
			r++
		}
		end := i + r
		if 4*r <= uvarintLen(uint64(i-start))+uvarintLen(uint64(r))+4 {
			if end < len(data) {
				i = end // cheaper as literals
				continue
			}
			i, r = end-1, 1 // the payload ends with a run: its last voxel
		}
		dst = binary.AppendUvarint(dst, uint64(i-start))
		for _, s := range data[start:i] {
			dst = binary.LittleEndian.AppendUint32(dst, floatBits(s))
		}
		dst = binary.AppendUvarint(dst, uint64(r))
		dst = binary.LittleEndian.AppendUint32(dst, pat)
		start, i = end, end
	}
	return dst
}

// decodeRuns decodes a run-length payload into dst, the little-endian
// bytes of len(dst)/4 voxels: literals are copied in, runs fill. The
// payload is untrusted; it must fill dst exactly and end there.
func decodeRuns(dst, src []byte) error {
	for o := 0; o < len(dst); {
		left := uint64(len(dst)-o) / 4
		lits, n := binary.Uvarint(src)
		if n <= 0 {
			return fmt.Errorf("%w: truncated literal count at voxel %d", errCorruptPayload, o/4)
		}
		src = src[n:]
		if lits > left || uint64(len(src)) < 4*lits {
			return fmt.Errorf("%w: %d literals at voxel %d: %d voxels left, %d bytes", errCorruptPayload, lits, o/4, left, len(src))
		}
		o += copy(dst[o:], src[:4*lits])
		src = src[4*lits:]
		run, n := binary.Uvarint(src)
		if n <= 0 || len(src) < n+4 {
			return fmt.Errorf("%w: truncated run at voxel %d", errCorruptPayload, o/4)
		}
		if run == 0 || run > left-lits {
			return fmt.Errorf("%w: run of %d at voxel %d: %d voxels left", errCorruptPayload, run, o/4, left-lits)
		}
		seg := dst[o : o+4*int(run)]
		copy(seg, src[n:n+4])
		for k := 4; k < len(seg); k *= 2 {
			copy(seg[k:], seg[:k])
		}
		src, o = src[n+4:], o+len(seg)
	}
	if len(src) > 0 {
		return fmt.Errorf("%w: %d bytes left after the core is full", errCorruptPayload, len(src))
	}
	return nil
}

// decodeDims reads and bounds the three uint64 dims at hdr (24 bytes).
// Header dims are untrusted; anything outside [1, maxFileDim] is hostile
// or corrupt, and rejecting it here keeps all later size arithmetic
// overflow-free.
func decodeDims(hdr []byte) (Dims, error) {
	var u [3]uint64
	for a := 0; a < 3; a++ {
		u[a] = binary.LittleEndian.Uint64(hdr[a*8:])
		if u[a] == 0 || u[a] > maxFileDim {
			return Dims{}, fmt.Errorf("dim %d out of range [1, %d]", u[a], int64(maxFileDim))
		}
	}
	return Dims{X: int(u[0]), Y: int(u[1]), Z: int(u[2])}, nil
}

// decodeV2Header parses and validates a v2 header (fixed fields plus
// brick directory) from the front of data, returning the bytes consumed.
// Every field is treated as hostile: dims and counts are bounded, the
// directory length is capped, stored sizes must be consistent with each
// brick's raw core size, a constant entry must hold one bit pattern at
// offset 0, and min > max (or NaN) is rejected. What it cannot check
// without the file — that payloads lie inside it and end it — OpenFileV2
// checks against the stat size. decode→encode is a fixed point (see
// FuzzVolumeFileV2).
func decodeV2Header(data []byte) (v2Header, int, error) {
	h, consumed, err := decodeV2Fixed(data)
	if err != nil {
		return h, 0, err
	}
	if len(data) < consumed {
		return h, 0, fmt.Errorf("volume: v2 directory truncated: %d of %d bytes", len(data), consumed)
	}
	h.dir = make([]v2Entry, (consumed-v2FixedHeaderSize)/v2DirEntrySize)
	hdrLen := uint64(consumed)
	i := 0
	for kz := 0; kz < h.counts[2]; kz++ {
		for ky := 0; ky < h.counts[1]; ky++ {
			for kx := 0; kx < h.counts[0]; kx++ {
				o := v2FixedHeaderSize + i*v2DirEntrySize
				e := v2Entry{
					off:    binary.LittleEndian.Uint64(data[o:]),
					stored: binary.LittleEndian.Uint64(data[o+8:]),
					lo:     bitsFloat(binary.LittleEndian.Uint32(data[o+16:])),
					hi:     bitsFloat(binary.LittleEndian.Uint32(data[o+20:])),
				}
				raw, ok := coreBytes(h.coreExt(kx, ky, kz))
				if !ok {
					return h, 0, fmt.Errorf("volume: brick %d core size overflows", i)
				}
				switch {
				case e.constant():
					if e.off != 0 || floatBits(e.lo) != floatBits(e.hi) {
						return h, 0, fmt.Errorf("volume: brick %d constant entry invalid: offset %d, bits %#x..%#x",
							i, e.off, floatBits(e.lo), floatBits(e.hi))
					}
				case h.compressed() && e.stored > uint64(v2MaxStored(raw)):
					return h, 0, fmt.Errorf("volume: brick %d stored size %d implausible for %d raw bytes", i, e.stored, raw)
				case !h.compressed() && e.stored != uint64(raw):
					return h, 0, fmt.Errorf("volume: brick %d stored size %d != %d raw bytes", i, e.stored, raw)
				case e.off < hdrLen || e.off > math.MaxInt64-e.stored:
					return h, 0, fmt.Errorf("volume: brick %d payload offset %d invalid", i, e.off)
				}
				if !(e.lo <= e.hi) { // also rejects NaN
					return h, 0, fmt.Errorf("volume: brick %d min/max [%v, %v] invalid", i, e.lo, e.hi)
				}
				h.dir[i] = e
				i++
			}
		}
	}
	return h, consumed, nil
}

// decodeV2Fixed is decodeV2Header's first half: the fixed fields, and with
// them the length of the whole header — how much OpenFileV2 must read
// before it can call decodeV2Header.
func decodeV2Fixed(data []byte) (h v2Header, headerLen int, err error) {
	if len(data) < v2FixedHeaderSize {
		return h, 0, fmt.Errorf("volume: v2 header truncated: %d bytes", len(data))
	}
	if string(data[:4]) != fileMagic {
		return h, 0, fmt.Errorf("volume: not a GVMR volume file")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != fileVersion2 {
		return h, 0, fmt.Errorf("volume: unsupported version %d: only the bricked version %d is read", v, fileVersion2)
	}
	d, err := decodeDims(data[8:])
	if err != nil {
		return h, 0, fmt.Errorf("volume: invalid v2 dims: %w", err)
	}
	h.dims = d
	dims := [3]int{d.X, d.Y, d.Z}
	for a := 0; a < 3; a++ {
		c := binary.LittleEndian.Uint32(data[32+a*4:])
		if c == 0 || int64(c) > int64(dims[a]) || int64(c) > maxV2Bricks {
			return h, 0, fmt.Errorf("volume: brick count %d invalid for axis extent %d", c, dims[a])
		}
		h.counts[a] = int(c)
	}
	n := int64(h.counts[0]) * int64(h.counts[1]) * int64(h.counts[2])
	if n > maxV2Bricks {
		return h, 0, fmt.Errorf("volume: %d bricks exceeds the limit %d", n, maxV2Bricks)
	}
	h.flags = binary.LittleEndian.Uint32(data[44:])
	if h.flags&v2FlagFlate != 0 {
		return h, 0, errors.New("volume: flate-compressed v2 files are no longer read; rewrite with volgen -compress")
	}
	if h.flags&^v2FlagRuns != 0 {
		return h, 0, fmt.Errorf("volume: unknown v2 flags %#x", h.flags)
	}
	return h, v2FixedHeaderSize + int(n)*v2DirEntrySize, nil
}

// encodeV2Header is the exact inverse of decodeV2Header.
func encodeV2Header(h v2Header) []byte {
	buf := make([]byte, h.headerLen())
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[4:], fileVersion2)
	binary.LittleEndian.PutUint64(buf[8:], uint64(h.dims.X))
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.dims.Y))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.dims.Z))
	for a := 0; a < 3; a++ {
		binary.LittleEndian.PutUint32(buf[32+a*4:], uint32(h.counts[a]))
	}
	binary.LittleEndian.PutUint32(buf[44:], h.flags)
	for i, e := range h.dir {
		o := v2FixedHeaderSize + i*v2DirEntrySize
		binary.LittleEndian.PutUint64(buf[o:], e.off)
		binary.LittleEndian.PutUint64(buf[o+8:], e.stored)
		binary.LittleEndian.PutUint32(buf[o+16:], floatBits(e.lo))
		binary.LittleEndian.PutUint32(buf[o+20:], floatBits(e.hi))
	}
	return buf
}

// V2Options configures WriteFileV2.
type V2Options struct {
	// BrickEdge is the target brick edge length in voxels (default 32 —
	// a 128 KiB raw brick, small enough that a tiny staging budget still
	// holds several, large enough that the directory stays negligible).
	BrickEdge int
	// Compress compresses each brick payload independently, with a
	// run-length code of its voxels' bit patterns: a page-in is a read and
	// a copy/fill loop, with no entropy decoding.
	Compress bool
}

// DefaultBrickEdge is the brick edge WriteFileV2 uses when none is given.
const DefaultBrickEdge = 32

// fileWriter is the destination contract of the volume writer: a data
// sink whose Sync and Close errors are the last chance to learn that a
// write was silently lost (*os.File satisfies it; tests inject failures).
type fileWriter interface {
	io.Writer
	io.WriterAt
	Sync() error
	Close() error
}

// finishFile completes a volume write: if the body succeeded, sync the
// file to stable storage and close it, reporting the first error. A
// failed close can mean a truncated volume on disk, so its error must
// reach the caller instead of vanishing in a defer.
func finishFile(f fileWriter, err error) error {
	if err != nil {
		f.Close() // best-effort; the write error is the primary failure
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileV2 streams a source to a bricked volume file, one brick core
// at a time, never materialising the full volume. Each brick's exact
// min/max goes in the directory, and a brick whose core holds one bit
// pattern is recorded there as that pattern, with no payload; a source
// holding NaN fails the write, naming the brick. The file is written
// beside path, synced, closed and renamed over it: a reader that has the
// old file open keeps reading the old volume, and a failed write leaves
// it in place.
func WriteFileV2(path string, src Source, opts V2Options) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // not CreateTemp's 0600: the volume is data to share
	if err == nil {
		err = writeFileV2(f, src, opts)
	}
	if err = finishFile(f, err); err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// writeFileV2 writes the v2 body to f: a placeholder header, the dense
// bricks' payloads in directory order, then the real header patched in
// at 0.
func writeFileV2(f fileWriter, src Source, opts V2Options) error {
	edge := opts.BrickEdge
	if edge <= 0 {
		edge = DefaultBrickEdge
	}
	d := src.Dims()
	var counts [3]int
	for a, dim := range [3]int{d.X, d.Y, d.Z} {
		counts[a] = (dim + edge - 1) / edge
	}
	grid, err := MakeGrid(d, counts)
	if err != nil {
		return err
	}
	h := v2Header{dims: d, counts: counts, dir: make([]v2Entry, grid.NumBricks())}
	if opts.Compress {
		h.flags = v2FlagRuns
	}

	var maxCore int64
	for _, b := range grid.Bricks {
		if n := b.Core.Ext.Voxels(); n > maxCore {
			maxCore = n
		}
	}
	vox := make([]float32, maxCore)
	buf := make([]byte, 0, v2MaxStored(maxCore*4))

	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.Write(make([]byte, h.headerLen())); err != nil {
		return err
	}
	off := uint64(h.headerLen())
	for i, b := range grid.Bricks {
		n := int(b.Core.Ext.Voxels())
		data := vox[:n]
		if err := src.Fill(b.Core, data); err != nil {
			return err
		}
		lo, hi := data[0], data[0]
		first, constant := floatBits(data[0]), true
		for j, s := range data {
			if s != s {
				// No [lo, hi] bounds a NaN, and a directory entry without
				// bounds is one no reader accepts.
				return fmt.Errorf("volume: brick %d holds NaN at core voxel %d: a v2 directory cannot bound it", i, j)
			}
			// Bits, not values: a brick mixing +0 and -0 is dense.
			constant = constant && floatBits(s) == first
			if s < lo {
				lo = s
			} else if s > hi {
				hi = s
			}
		}
		if constant {
			h.dir[i] = v2Entry{lo: lo, hi: hi}
			continue
		}
		enc := buf[:0]
		if opts.Compress {
			enc = appendRuns(enc, data)
		} else {
			for _, s := range data {
				enc = binary.LittleEndian.AppendUint32(enc, floatBits(s))
			}
		}
		if _, err := w.Write(enc); err != nil {
			return err
		}
		h.dir[i] = v2Entry{off: off, stored: uint64(len(enc)), lo: lo, hi: hi}
		off += uint64(len(enc))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	_, err = f.WriteAt(encodeV2Header(h), 0)
	return err
}

// PagerStats is a snapshot of a PagedSource's demand-paging activity.
type PagerStats struct {
	Bricks        int   `json:"bricks"`         // bricks in the file
	BrickReads    int64 `json:"brick_reads"`    // payloads decoded from disk
	BytesRead     int64 `json:"bytes_read"`     // stored payload bytes read
	Reloads       int64 `json:"reloads"`        // re-reads of a brick already read once: proof of eviction between the two
	Fallbacks     int64 `json:"fallbacks"`      // pages served uncached (budget exhausted by in-flight work)
	SkippedBricks int64 `json:"skipped_bricks"` // render bricks proven TF-empty by directory min/max: zero disk traffic
	ConstantFills int64 `json:"constant_fills"` // page uses served from a directory constant: no read, no decode, no cache entry
}

// RangedSource is a Source that can bound the sample values of a region
// without reading the data — the hook that lets staging prove a brick
// invisible under a transfer function before paying any disk I/O.
type RangedSource interface {
	Source
	// RegionRange returns a bound [lo, hi] on every sample in r.
	// ok == false means no bound is known.
	RegionRange(r Region) (lo, hi float32, ok bool)
}

// FramePlanner is a source that can use notice of a job's Fills: the
// renderer calls PlanFrame once per job with the ghost region of every brick
// it may stage, and done when the job ends. A plan is a hint: it may change
// what the source keeps in memory, never what a Fill returns.
type FramePlanner interface {
	PlanFrame(ghosts []Region) (done func())
}

// framePlan is one job's plan: the Fills it still owes per ghost region,
// and the staging-cache key and charge of those regions' macrocell grids.
type framePlan struct {
	left      map[Region]int
	kept      cacheKey
	keptBytes int64
}

// PagedSource reads a v2 volume file by demand-paging individual file
// bricks through a StagingCache: each brick core is a separate cache
// entry, so a render streams volumes far larger than the staging budget,
// with least-recently-used bricks — first those no live frame plan will
// touch again — evicted and re-read if touched again. A brick the
// directory records as constant is never read or cached: its pattern is
// written straight into the destination. It is safe for concurrent use.
type PagedSource struct {
	f interface {
		io.ReaderAt
		io.Closer
	}
	path      string
	hdr       v2Header
	grid      *Grid
	cache     *StagingCache
	keyPrefix string
	pages     []cacheKey    // per file brick, built once: a page touch allocates no name
	loaded    []atomic.Bool // per file brick: decoded from disk at least once

	mu      sync.Mutex
	planned []int32      // per file brick: Fills the live plans still owe it
	plans   []*framePlan // live plans, oldest first

	brickReads atomic.Int64
	bytesRead  atomic.Int64
	reloads    atomic.Int64
	fallbacks  atomic.Int64
	skips      atomic.Int64
	constFills atomic.Int64
}

// OpenFileV2 opens a GVMR volume file. The header and brick directory are
// fully validated at open — including every payload's placement inside
// the actual file size, and that the last one ends the file — so
// truncated, padded or hostile files fail here, not mid-render. Pages go
// through the process-wide staging cache by default; SetCache overrides.
func OpenFileV2(path string) (*PagedSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fixed := make([]byte, v2FixedHeaderSize)
	if _, err := io.ReadFull(f, fixed); err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: reading header of %s: %w", path, err)
	}
	// The fixed fields give the header's length; the strict decoder gets it all.
	_, headerLen, err := decodeV2Fixed(fixed)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: %s: %w", path, err)
	}
	full := make([]byte, headerLen)
	copy(full, fixed)
	if _, err := io.ReadFull(f, full[v2FixedHeaderSize:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: reading brick directory of %s: %w", path, err)
	}
	hdr, _, err := decodeV2Header(full)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: stat %s: %w", path, err)
	}
	size := fi.Size()
	last := uint64(headerLen)
	for i, e := range hdr.dir {
		end := e.off + e.stored // overflow ruled out by decodeV2Header
		if end > uint64(size) {
			f.Close()
			return nil, fmt.Errorf("volume: %s: brick %d payload [%d, %d) exceeds file size %d",
				path, i, e.off, end, size)
		}
		last = max(last, end)
	}
	if last != uint64(size) {
		f.Close()
		return nil, fmt.Errorf("volume: %s is %d bytes, its directory accounts for %d", path, size, last)
	}
	grid, err := MakeGrid(hdr.dims, hdr.counts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("volume: %s: %w", path, err)
	}
	s := &PagedSource{
		f:     f,
		path:  path,
		hdr:   hdr,
		grid:  grid,
		cache: Cache,
		// Key pages by path + size + mtime so a rewritten file never
		// serves stale pages out of the shared cache.
		keyPrefix: fmt.Sprintf("pv2|%s|%d|%d|", path, size, fi.ModTime().UnixNano()),
		pages:     make([]cacheKey, len(hdr.dir)),
		loaded:    make([]atomic.Bool, len(hdr.dir)),
		planned:   make([]int32, len(hdr.dir)),
	}
	for i := range s.pages {
		s.pages[i] = cacheKey{name: s.keyPrefix + strconv.Itoa(i), dims: grid.Bricks[i].Core.Ext}
	}
	return s, nil
}

// Close releases the underlying file.
func (s *PagedSource) Close() error { return s.f.Close() }

// Name implements Source.
func (s *PagedSource) Name() string { return s.path }

// Dims implements Source.
func (s *PagedSource) Dims() Dims { return s.hdr.dims }

// BrickGrid returns the file's brick decomposition.
func (s *PagedSource) BrickGrid() *Grid { return s.grid }

// SetCache routes pages through c instead of the process-wide cache
// (nil, or a cache with no capacity, reads every page straight from
// disk). Call before the first Fill.
func (s *PagedSource) SetCache(c *StagingCache) { s.cache = c }

// Stats returns a snapshot of the pager counters.
func (s *PagedSource) Stats() PagerStats {
	return PagerStats{
		Bricks:        s.grid.NumBricks(),
		BrickReads:    s.brickReads.Load(),
		BytesRead:     s.bytesRead.Load(),
		Reloads:       s.reloads.Load(),
		Fallbacks:     s.fallbacks.Load(),
		SkippedBricks: s.skips.Load(),
		ConstantFills: s.constFills.Load(),
	}
}

// NoteBrickSkip records that a render brick was proven empty from the
// directory min/max alone (StageBrickSkip calls it; no disk I/O happened).
func (s *PagedSource) NoteBrickSkip() { s.skips.Add(1) }

// splitRange returns the [i0, i1) range of axis splits (of length into n
// near-equal spans) that overlap the half-open voxel interval [lo, hi).
func splitRange(length, n, lo, hi int) (int, int) {
	i0 := sort.Search(n, func(i int) bool { return axisSplit(length, n, i+1) > lo })
	i1 := sort.Search(n, func(i int) bool { return axisSplit(length, n, i) >= hi })
	return i0, i1
}

// eachBrick calls fn with the directory index of every file brick whose
// core overlaps r, x fastest.
func (s *PagedSource) eachBrick(r Region, fn func(i int)) {
	d := [3]int{s.hdr.dims.X, s.hdr.dims.Y, s.hdr.dims.Z}
	e := r.End()
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = splitRange(d[a], s.hdr.counts[a], r.Org[a], e[a])
	}
	for kz := lo[2]; kz < hi[2]; kz++ {
		for ky := lo[1]; ky < hi[1]; ky++ {
			for kx := lo[0]; kx < hi[0]; kx++ {
				fn((kz*s.hdr.counts[1]+ky)*s.hdr.counts[0] + kx)
			}
		}
	}
}

// RegionRange implements RangedSource: the union of directory min/max
// over every file brick whose core intersects r. Cores tile the volume
// and the renderer's trilinear fetches clamp into the sampled region, so
// this bounds every sample a render can take inside r — without reading
// one payload byte.
func (s *PagedSource) RegionRange(r Region) (lo, hi float32, ok bool) {
	s.eachBrick(r, func(i int) {
		e := s.hdr.dir[i]
		if !ok || e.lo < lo {
			lo = e.lo
		}
		if !ok || e.hi > hi {
			hi = e.hi
		}
		ok = true
	})
	return lo, hi, ok
}

// storedBufs pools the scratch a run-length payload is read into.
var storedBufs = sync.Pool{New: func() any { return new([]byte) }}

// readPage reads and decodes dense brick i's payload into a fresh slice of
// core voxels: the only disk path; its scratch is pooled, the page is its
// one allocation. The payload is read or decoded straight into the page's
// own bytes, which on a little-endian host then are its voxels.
func (s *PagedSource) readPage(i int) ([]float32, error) {
	e := s.hdr.dir[i]
	data := make([]float32, s.pages[i].dims.Voxels())
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), len(data)*4)
	if s.hdr.compressed() {
		stored := storedBufs.Get().(*[]byte)
		defer storedBufs.Put(stored)
		*stored = slices.Grow((*stored)[:0], int(e.stored))[:e.stored]
		if err := s.readPayload(i, *stored); err != nil {
			return nil, err
		}
		if err := decodeRuns(raw, *stored); err != nil {
			return nil, fmt.Errorf("volume: decoding brick %d of %s: %w", i, s.path, err)
		}
	} else if err := s.readPayload(i, raw); err != nil {
		return nil, err
	}
	if !littleEndian {
		// In place: each voxel reads its own four bytes before writing them.
		for j := range data {
			data[j] = bitsFloat(binary.LittleEndian.Uint32(raw[j*4:]))
		}
	}
	s.brickReads.Add(1)
	s.bytesRead.Add(int64(e.stored))
	if s.loaded[i].Swap(true) {
		s.reloads.Add(1)
	}
	return data, nil
}

// readPayload reads brick i's stored payload, len(dst) bytes, into dst.
func (s *PagedSource) readPayload(i int, dst []byte) error {
	if n, err := s.f.ReadAt(dst, int64(s.hdr.dir[i].off)); n < len(dst) {
		// A short ReadAt owes its reason; a faulty reader may forget it.
		return fmt.Errorf("volume: reading brick %d of %s: %w", i, s.path, cmp.Or(err, io.ErrUnexpectedEOF))
	}
	return nil
}

// page returns brick i's core voxels, out of the staging cache unless its
// budget is held by in-flight work (a page is charged its voxels alone: no
// grid is ever built over one) — or, data == nil, a constant brick's value.
func (s *PagedSource) page(i int) (data []float32, val float32, err error) {
	if e := s.hdr.dir[i]; e.constant() {
		s.constFills.Add(1)
		return nil, e.lo, nil
	}
	c := s.cache
	if c == nil || c.Capacity() == 0 {
		data, err = s.readPage(i)
		return data, 0, err
	}
	v, _, err := c.Load(s.pages[i], s.pages[i].dims.Bytes(), func(reserved bool) (any, int64, error) {
		if !reserved {
			s.fallbacks.Add(1)
		}
		data, err := s.readPage(i)
		return data, s.pages[i].dims.Bytes(), err
	})
	data, _ = v.([]float32)
	return data, 0, err
}

// PlanFrame implements FramePlanner. Every file brick under a planned
// ghost region is owed one use per region; Fill pays them, and a page
// whose last use is paid moves to the eviction end of the cache's LRU:
// the budget goes to pages the frame still needs. Plans of concurrent
// jobs add up; done pays whatever the job did not Fill.
func (s *PagedSource) PlanFrame(ghosts []Region) (done func()) {
	p := &framePlan{left: make(map[Region]int, len(ghosts))}
	// Were two plans' hashes to collide they would share one charge, not
	// bits: inside the entry a grid is found by its region.
	h := fnv.New64a()
	s.mu.Lock()
	for _, g := range ghosts {
		p.left[g]++
		s.eachBrick(g, func(i int) { s.planned[i]++ })
		fmt.Fprint(h, g)
		p.keptBytes += MacrocellBytes(g.Ext)
	}
	p.kept = cacheKey{name: fmt.Sprintf("%smc|%x", s.keyPrefix, h.Sum64())}
	s.plans = append(s.plans, p)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.plans = slices.DeleteFunc(s.plans, func(q *framePlan) bool { return q == p })
		left := p.left
		p.left = nil
		s.mu.Unlock()
		for g, n := range left {
			if n > 0 { // a paid region's pages were demoted in spent order as Fill paid them
				s.eachBrick(g, func(i int) { s.release(i, n) })
			}
		}
	}
}

// livePlan returns the oldest live plan that lists r, or nil. With pay
// set the plan must still be owed a Fill of r, and is marked paid; which
// of two jobs that planned the same region gets the credit is immaterial
// to the per-page counts.
func (s *PagedSource) livePlan(r Region, pay bool) *framePlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.plans {
		if n, listed := p.left[r]; listed && (n > 0 || !pay) {
			if pay {
				p.left[r]--
			}
			return p
		}
	}
	return nil
}

// release pays n planned uses of page i and demotes a cached page that no
// live plan will use again.
func (s *PagedSource) release(i, n int) {
	s.mu.Lock()
	s.planned[i] -= int32(n)
	idle := s.planned[i] == 0
	s.mu.Unlock()
	if c := s.cache; idle && c != nil {
		c.Demote(s.pages[i])
	}
}

// Fill implements Source: the requested region is assembled from every
// file brick whose core intersects it, each paged through the staging
// cache, never the whole volume — this is the out-of-core path.
func (s *PagedSource) Fill(r Region, dst []float32) error {
	if err := checkRegion(s.hdr.dims, r, len(dst)); err != nil {
		return err
	}
	plan := s.livePlan(r, true)
	s.grids(plan) // touched: the frame's own pages must not push its grids out
	var err error
	s.eachBrick(r, func(i int) {
		if err == nil {
			err = s.fillFrom(i, r, dst)
		}
		if plan != nil {
			s.release(i, 1) // after a failure too: the plan must drain
		}
	})
	return err
}

// fillFrom writes the part of r that file brick i's core covers into dst.
func (s *PagedSource) fillFrom(i int, r Region, dst []float32) error {
	data, val, err := s.page(i)
	if err != nil {
		return err
	}
	c := s.grid.Bricks[i].Core
	e, ce := r.End(), c.End()
	// Intersection of the brick core with r, in volume coords.
	x0, x1 := max(r.Org[0], c.Org[0]), min(e[0], ce[0])
	y0, y1 := max(r.Org[1], c.Org[1]), min(e[1], ce[1])
	z0, z1 := max(r.Org[2], c.Org[2]), min(e[2], ce[2])
	for z := z0; z < z1; z++ {
		for y := y0; y < y1; y++ {
			di := ((z-r.Org[2])*r.Ext.Y+(y-r.Org[1]))*r.Ext.X + (x0 - r.Org[0])
			row := dst[di : di+(x1-x0)]
			if data == nil {
				for k := range row {
					row[k] = val
				}
				continue
			}
			si := ((z-c.Org[2])*c.Ext.Y+(y-c.Org[1]))*c.Ext.X + (x0 - c.Org[0])
			copy(row, data[si:si+(x1-x0)])
		}
	}
	return nil
}

// grids returns the macrocell grids kept for p's ghost regions (Region →
// *Macrocells), or nil without a plan or a budget that can hold them. A
// grid is a pure function of file and region, so they live in the staging
// cache under the file's identity, charged and evictable like a page. One
// entry per plan, not per grid: a touch per planned Fill keeps it young; a
// grid alone, used once a frame, goes first when the frame's pages overflow.
func (s *PagedSource) grids(p *framePlan) *sync.Map {
	if c := s.cache; p != nil && c != nil && c.Capacity() > 0 {
		val, _, err := c.Load(p.kept, p.keptBytes, func(reserved bool) (any, int64, error) {
			if !reserved {
				return nil, 0, errBudgetHeld
			}
			return new(sync.Map), p.keptBytes, nil
		})
		if err == nil {
			return val.(*sync.Map)
		}
	}
	return nil
}

// keptMacrocells implements macrocellKeeper for the ghost regions of
// live plans; outside one nothing is kept.
func (s *PagedSource) keptMacrocells(ghost Region, build func() *Macrocells) *Macrocells {
	grids := s.grids(s.livePlan(ghost, false))
	if grids == nil {
		return build()
	}
	mc, ok := grids.Load(ghost)
	if !ok {
		mc, _ = grids.LoadOrStore(ghost, build()) // a concurrent builder may win: one pointer per grid
	}
	return mc.(*Macrocells)
}
