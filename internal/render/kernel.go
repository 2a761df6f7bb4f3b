package render

import (
	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/gpu"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

// Kernel is the ray-casting map kernel for one brick, implementing
// gpu.Kernel. The grid covers the brick's screen footprint padded to 16×16
// blocks (§3.2: "the grid is made to match the size of the sub-image
// (with a potentially small amount of padding) onto which the current
// chunk projects"). Each thread emits a variable-length fragment list —
// zero fragments for misses and padding threads — stored in a per-pixel
// offset/count layout instead of the paper's fixed one-slot-per-thread
// array, which is what lets a ray contribute one fragment per partition
// re-entry span under non-convex partitions (DESIGN.md §12).
type Kernel struct {
	Cam   *camera.Camera
	Space volume.Space
	Data  *volume.BrickData
	Prm   Params
	FP    camera.Footprint
	// Sampler is the per-pixel sampling routine; nil means ray casting
	// (CastRay). Swapping in CastRaySlicing is the §6.1 map-phase
	// pluggability demonstration.
	Sampler SampleFn
	// Counts is the per-thread fragment count, indexed by global thread
	// slot (gy*rowThreads + gx): the "count" half of the emission layout.
	Counts []int32

	// Per-block emission buffers and intra-block thread offsets; together
	// with Counts they form the offset/count layout. Blocks write only
	// their own entry, which keeps RunBlock's disjoint-writes discipline.
	// offs is one slab for the whole grid, blockOffsLen entries per block
	// (a block that never ran keeps all-zero offsets into a nil buffer).
	blockFrags [][]composite.Fragment
	offs       []int32

	grid gpu.Dim2
}

// SampleFn is a pluggable per-pixel volume sampler: it marches pixel
// (px,py) through the brick and emits zero or more fragments. Convex
// bricks yield at most one fragment per ray; emit exists so a sampler
// can cut a ray at partition re-entry boundaries and emit one fragment
// per traversal span. A ray that contributes nothing emits nothing; the
// kernel charges its §3.1.1 place-holder record.
type SampleFn func(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int, emit func(composite.Fragment)) SampleStats

// SampleOne adapts an emit-based sampler to the classic single-fragment
// contract: the fragment if the sampler emitted one, else a placeholder
// keyed by the pixel index. It is the bridge for callers (reference
// renderer, tests) that consume one fragment per (brick, pixel).
func SampleOne(fn SampleFn, cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params, px, py int) (composite.Fragment, SampleStats) {
	frag := composite.Placeholder(int32(py*cam.Width + px))
	st := fn(cam, sp, bd, prm, px, py, func(f composite.Fragment) { frag = f })
	return frag, st
}

// NewKernel plans a kernel for one staged brick; it returns nil (no work)
// when the brick is off screen.
func NewKernel(cam *camera.Camera, sp volume.Space, bd *volume.BrickData, prm Params) *Kernel {
	fp, ok := cam.ProjectAABB(bd.Brick.Bounds)
	if !ok {
		return nil
	}
	grid := blockGrid(fp)
	return &Kernel{
		Cam:        cam,
		Space:      sp,
		Data:       bd,
		Prm:        prm.PrepareBrick(bd),
		FP:         fp,
		Counts:     make([]int32, grid.Count()*BlockDim*BlockDim),
		blockFrags: make([][]composite.Fragment, grid.Count()),
		offs:       make([]int32, grid.Count()*blockOffsLen),
		grid:       grid,
	}
}

// blockGrid is the block grid covering footprint fp.
func blockGrid(fp camera.Footprint) gpu.Dim2 {
	return gpu.Dim2{
		X: (fp.Width() + BlockDim - 1) / BlockDim,
		Y: (fp.Height() + BlockDim - 1) / BlockDim,
	}
}

// KernelThreads is the thread count of the kernel NewKernel plans for a
// brick with world bounds b — its screen footprint padded to whole
// blocks — and false when the brick is off screen and no kernel runs.
func KernelThreads(cam *camera.Camera, b vec.AABB) (int64, bool) {
	fp, ok := cam.ProjectAABB(b)
	if !ok {
		return 0, false
	}
	return int64(blockGrid(fp).Count()) * BlockDim * BlockDim, true
}

// blockOffsLen is a block's share of Kernel.offs: one start offset per
// thread plus the end sentinel.
const blockOffsLen = BlockDim*BlockDim + 1

// blockOffs returns block b's thread offsets into blockFrags[b].
func (k *Kernel) blockOffs(b int) []int32 {
	return k.offs[b*blockOffsLen : (b+1)*blockOffsLen]
}

// KernelName is every map kernel's name in stats and traces.
const KernelName = "raycast"

// Grid implements gpu.Kernel.
func (k *Kernel) Grid() gpu.Dim2 { return k.grid }

// Threads returns the total thread count (one per padded-footprint pixel).
func (k *Kernel) Threads() int { return len(k.Counts) }

// OutBytes returns the modeled size of the emission buffer: the per-thread
// count table plus the packed fragments. Call after the kernel ran.
func (k *Kernel) OutBytes() int64 {
	var frags int64
	for _, b := range k.blockFrags {
		frags += int64(len(b))
	}
	return int64(len(k.Counts))*4 + frags*composite.FragmentBytes
}

// ForEachThread visits every thread's fragment list in global slot order
// (row-major over the padded footprint — the same order the fixed
// per-thread array was read in, so per-brick emission order and with it
// the wire's canonical stripe order are unchanged). frags is empty for
// padding threads and rays that contributed nothing; it aliases the
// kernel's buffers and must not be retained across calls that mutate it.
func (k *Kernel) ForEachThread(fn func(slot int, frags []composite.Fragment)) {
	rowThreads := k.grid.X * BlockDim
	for slot := range k.Counts {
		gx := slot % rowThreads
		gy := slot / rowThreads
		b := (gy/BlockDim)*k.grid.X + gx/BlockDim
		ti := (gy%BlockDim)*BlockDim + gx%BlockDim
		offs := k.blockOffs(b)
		fn(slot, k.blockFrags[b][offs[ti]:offs[ti+1]])
	}
}

// RunBlock implements gpu.Kernel: 256 threads, one pixel each.
func (k *Kernel) RunBlock(bx, by int) gpu.Stats {
	var st gpu.Stats
	sample := k.Sampler
	if sample == nil {
		sample = CastRay
	}
	rowThreads := k.grid.X * BlockDim
	bi := by*k.grid.X + bx
	frags := make([]composite.Fragment, 0, BlockDim*BlockDim)
	// One emit closure per block, not per thread: a closure handed to a
	// func value is heap-allocated where it is created.
	emit := func(f composite.Fragment) { frags = append(frags, f) }
	offs := k.blockOffs(bi)
	for ty := 0; ty < BlockDim; ty++ {
		for tx := 0; tx < BlockDim; tx++ {
			st.Threads++
			ti := ty*BlockDim + tx
			offs[ti] = int32(len(frags))
			gx := bx*BlockDim + tx
			gy := by*BlockDim + ty
			slot := gy*rowThreads + gx
			px := k.FP.X0 + gx
			py := k.FP.Y0 + gy
			if px > k.FP.X1 || py > k.FP.Y1 {
				// Padding thread: emits nothing, but is charged one
				// place-holder record (§3.1.1 cost parity) that never
				// leaves the kernel.
				st.Emitted++
				k.Counts[slot] = 0
				continue
			}
			before := len(frags)
			samples := sample(k.Cam, k.Space, k.Data, k.Prm, px, py, emit)
			st.Samples += samples.Samples
			st.SamplesSkipped += samples.Skipped
			st.Cells += samples.Cells
			n := len(frags) - before
			k.Counts[slot] = int32(n)
			if n > 0 {
				st.RaysHit++
				st.Emitted += int64(n)
			} else {
				st.Emitted++ // empty list: one charged record, emitted nowhere
			}
		}
	}
	offs[BlockDim*BlockDim] = int32(len(frags))
	k.blockFrags[bi] = frags
	return st
}
