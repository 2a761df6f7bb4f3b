package core

import (
	"slices"

	"gvmr/internal/camera"
	"gvmr/internal/composite"
	"gvmr/internal/gpu"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/volume"
)

// rayCastMapper maps a render job's units on the host: it stages a unit's
// bricks from the source, casts each with the ray-casting (or slicing)
// kernel over its footprint, and keeps each brick's fragment lists and
// record. A convex unit holds one brick; a partitioned unit maps its
// bricks in ascending brick order, which is the canonical in-unit
// fragment order every downstream fold assumes. gpus and part are the
// job's: each fragment is counted against the modelled reducer the
// job's partitioner sends it to.
type rayCastMapper struct {
	src     volume.Source
	grid    *volume.Grid
	cam     *camera.Camera
	prm     render.Params
	sampler render.SampleFn
	gpus    int
	part    mapreduce.Partitioner
}

// stage materialises the ghost regions of a unit's bricks. The replayed
// job charges disk time separately when configured FromDisk; the real
// data production happens here (array copy, analytic evaluation, or file
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

// mapUnit maps unit id — bricks, ascending by brick ID — on the host:
// it stages the bricks, casts each on at most workers host cores, and
// releases each staged buffer once cast. It returns the unit's fragments
// in kernel emission order (its BrickStripe) and its record, each
// fragment counted as the job's engine batches its pair: per modelled
// reducer under the job's partitioner, with a flush wherever a reducer's
// send buffer fills. No virtual time passes.
func (m *rayCastMapper) mapUnit(id int, bricks []volume.Brick, workers int) ([]composite.Fragment, UnitCharges, error) {
	charges := UnitCharges{Unit: id}
	staged, err := m.stage(bricks)
	if err != nil {
		return nil, charges, err
	}
	var frags []composite.Fragment
	buf := make([]int64, m.gpus) // the engine flushes every buffer at a chunk's end
	for _, bd := range staged {
		ch, k := m.cast(bd, workers)
		if k != nil {
			ch.Frags = make([]int64, m.gpus)
			// The read-back is the count table and the fragments.
			frags = slices.Grow(frags, int(ch.Readback-4*int64(k.Threads()))/composite.FragmentBytes)
			k.ForEachThread(func(_ int, fs []composite.Fragment) {
				for _, f := range fs {
					frags = append(frags, f)
					red := m.part.Partition(f.Key, m.gpus)
					ch.Frags[red]++
					if buf[red]++; buf[red] == flushKVs {
						ch.Flushes = append(ch.Flushes, red)
						buf[red] = 0
					}
				}
			})
		}
		bd.Release()
		charges.Bricks = append(charges.Bricks, ch)
	}
	return frags, charges, nil
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
// box, then, when its kernel ran, the kernel and the read-back.
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
