package core

import (
	"gvmr/internal/camera"
	"gvmr/internal/composite"
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

// Stage implements mapreduce.Mapper: materialise the ghost regions of the
// unit's bricks. The engine charges disk time separately when configured
// FromDisk; the real data production happens here (array copy, analytic
// evaluation, or file read). Sources that persist per-brick min/max (the
// v2 demand pager) can prove a brick invisible under the transfer
// function before any of that happens — such bricks stage as payload-free
// empties the kernel leaps over.
func (m *rayCastMapper) Stage(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk) ([]*volume.BrickData, error) {
	bricks := c.(unitChunk).bricks
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

// Map implements mapreduce.Mapper: per brick of the unit, upload its
// resident box (the whole ghost region when skipping is off), run the
// kernel, read back, and emit every thread's fragment list, then free the
// texture and release the staged buffer for the next brick's stage. A thread
// whose list is empty (padding, miss, zero opacity) emits nothing: the
// kernel already charged its §3.1.1 "later-discarded place holder" record.
func (m *rayCastMapper) Map(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk,
	staged []*volume.BrickData, emit func(mapreduce.KV[composite.Fragment])) error {
	for _, bd := range staged {
		if _, err := m.mapBrick(p, w, bd, emit); err != nil {
			return err
		}
	}
	return nil
}

// mapBrick maps one staged brick and returns what it charged the engine:
// the record a replay charges again (replay.go). Frags and Flushes are the
// caller's to fill from the emissions.
func (m *rayCastMapper) mapBrick(p mapreduce.Ctx, w *mapreduce.Worker, bd *volume.BrickData,
	emit func(mapreduce.KV[composite.Fragment])) (BrickCharges, error) {
	box := render.ResidentBox(bd, m.prm)
	tex, err := w.UploadTexture(p, bd, box)
	if err != nil {
		return BrickCharges{}, err
	}
	ch := BrickCharges{Box: box.Ext}
	k := render.NewKernel(m.cam, m.grid.Space, tex, m.prm)
	if k == nil {
		tex.Free()
		bd.Release()
		return ch, nil // brick off screen: nothing to do
	}
	k.Sampler = m.sampler
	ch.Ran = true
	ch.Kernel = w.RunKernel(p, k)
	// Fragment read-back over PCIe: the paper measures <2 ms for a 512²
	// image's worth (§3); the model charges the actual buffer size
	// (per-thread counts plus packed fragments).
	ch.Readback = k.OutBytes()
	w.Download(p, ch.Readback)
	k.ForEachThread(func(_ int, frags []composite.Fragment) {
		for _, f := range frags {
			emit(mapreduce.KV[composite.Fragment]{Key: f.Key, Val: f})
		}
	})
	tex.Free()
	bd.Release()
	return ch, nil
}
