package core

import (
	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/gpu"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/volume"
)

// rayCastMapper is the renderer's Mapper: stage a unit's bricks from the
// source, upload the part of each its rays can fetch from (its resident
// box) as a 3D texture, run the ray-casting (or slicing)
// kernel over its footprint, read the fragment lists back and emit them.
// A convex unit holds one brick; a partitioned unit emits its bricks in
// ascending brick order, which is the canonical in-unit fragment order
// every downstream fold assumes.
type rayCastMapper struct {
	src     volume.Source
	grid    *volume.Grid
	cam     *camera.Camera
	prm     render.Params
	sampler render.SampleFn
}

var _ mapreduce.Mapper[composite.Fragment, []*volume.BrickData] = (*rayCastMapper)(nil)

// Init implements mapreduce.Mapper. Static per-worker state (view matrix,
// transfer-function texture) is tiny; its upload cost is charged here.
func (m *rayCastMapper) Init(p mapreduce.Ctx, w *mapreduce.Worker) error {
	initWorker(p, w)
	return nil
}

// initWorker is the per-worker set-up charge every render job's mapper
// pays, the replay's included: it touches the link once, which models the
// TF/texture setup.
func initWorker(p mapreduce.Ctx, w *mapreduce.Worker) { w.Download(p, 0) }

// Stage implements mapreduce.Mapper by staging the unit's bricks.
func (m *rayCastMapper) Stage(_ mapreduce.Ctx, _ *mapreduce.Worker, c mapreduce.Chunk) ([]*volume.BrickData, error) {
	return m.stage(c.(unitChunk).bricks)
}

// stage materialises the ghost regions of a unit's bricks. The engine
// charges disk time separately when configured FromDisk; the real data
// production happens here (array copy, analytic evaluation, or file
// read). Sources that persist per-brick min/max (the v2 demand pager) can
// prove a brick invisible under the transfer function before any of that
// happens — such bricks stage as payload-free empties the kernel leaps
// over.
func (m *rayCastMapper) stage(bricks []volume.Brick) ([]*volume.BrickData, error) {
	tfEmpty := m.tfEmpty()
	staged := make([]*volume.BrickData, 0, len(bricks))
	for _, b := range bricks {
		bd, err := volume.StageBrickSkip(m.src, b, tfEmpty)
		if err != nil {
			return nil, err
		}
		staged = append(staged, bd)
	}
	return staged, nil
}

// tfEmpty returns the invisibility predicate StageBrickSkip needs — "is
// every scalar in [lo, hi] mapped to zero opacity?" — or nil when
// empty-space skipping is disabled, which must also disable min/max
// staging skips so NoEmptySkip renders remain exact reference runs.
func (m *rayCastMapper) tfEmpty() func(lo, hi float32) bool {
	if m.prm.NoEmptySkip || m.prm.TF == nil {
		return nil
	}
	tf := m.prm.TF
	return func(lo, hi float32) bool { return tf.MaxAlphaInRange(lo, hi) == 0 }
}

// Map implements mapreduce.Mapper: per brick of the unit, cast it on the
// host, charge the record (chargeBrick: the resident box's upload, the
// kernel and the read-back), emit every thread's fragment list, then
// release the staged buffer for the next brick's stage. A thread whose
// list is empty (padding, miss, zero opacity) emits nothing: the kernel
// already charged its §3.1.1 "later-discarded place holder" record.
func (m *rayCastMapper) Map(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk,
	staged []*volume.BrickData, emit func(mapreduce.KV[composite.Fragment])) error {
	for _, bd := range staged {
		ch, k := m.cast(bd, w.Dev.Workers)
		if err := chargeBrick(p, w, &ch); err != nil {
			return err
		}
		if k != nil {
			k.ForEachThread(func(_ int, frags []composite.Fragment) {
				for _, f := range frags {
					emit(mapreduce.KV[composite.Fragment]{Key: f.Key, Val: f})
				}
			})
		}
		bd.Release()
	}
	return nil
}

// cast runs one staged brick's kernel on at most workers host cores
// (gpu.RunBlocks) and returns the brick's record — the resident box
// (render.ResidentBox: the whole ghost region when skipping is off), the
// kernel's work and the read-back size — with the kernel, whose fragment
// lists the caller reads. The kernel is nil when the brick is off screen;
// Frags and Flushes are left to the caller. No virtual time passes.
func (m *rayCastMapper) cast(bd *volume.BrickData, workers int) (BrickCharges, *render.Kernel) {
	ch := BrickCharges{Box: render.ResidentBox(bd, m.prm).Ext}
	k := render.NewKernel(m.cam, m.grid.Space, bd, m.prm)
	if k == nil {
		return ch, nil
	}
	k.Sampler = m.sampler
	ch.Ran = true
	ch.Kernel = gpu.RunBlocks(k, workers)
	// Fragment read-back over PCIe: the paper measures <2 ms for a 512²
	// image's worth (§3); the model charges the actual buffer size
	// (per-thread counts plus packed fragments).
	ch.Readback = k.OutBytes()
	return ch, k
}

// chargeBrick charges one brick's record on w: the upload of its resident
// box, then, when its kernel ran, the kernel and the read-back. Render's
// mapper and the replay both charge every brick through it.
func chargeBrick(p mapreduce.Ctx, w *mapreduce.Worker, b *BrickCharges) error {
	tex, err := w.UploadTexture(p, volume.Region{Ext: b.Box})
	if err != nil {
		return err
	}
	if b.Ran {
		w.RunKernel(p, render.KernelName, b.Kernel)
		w.Download(p, b.Readback)
	}
	tex.Free()
	return nil
}
