package core

import (
	"fmt"

	"gvmr/internal/volume"
)

// planBricks implements the bricking policy: the brick count is the larger
// of (GPUs × BricksPerGPU) and the VRAM floor (how many pieces the volume
// must be cut into so one brick fits in a device's usable memory). The
// paper's renderer "works well for configurations where the number of
// bricks is close (roughly within a factor of four) to the number of
// GPUs" (§6) — BricksPerGPU dials exactly that factor. A brick may
// occupy three quarters of a device's memory; the working buffers need
// the rest.
func planBricks(d volume.Dims, gpus, bricksPerGPU int, vramBytes int64) (*volume.Grid, error) {
	if gpus < 1 {
		return nil, fmt.Errorf("core: %d GPUs", gpus)
	}
	usable := vramBytes * 3 / 4
	if usable <= 0 {
		return nil, fmt.Errorf("core: no usable VRAM")
	}
	floor := int((d.Bytes() + usable - 1) / usable)
	want := gpus * bricksPerGPU
	if floor > want {
		want = floor
	}
	// Grow the count until a factorisation yields bricks that actually
	// fit (ghost layers add a little, and integer splits are uneven).
	for n := want; ; n++ {
		counts := volume.FactorBricks(d, n)
		if counts[0]*counts[1]*counts[2] < n {
			continue // no usable factorisation at this n
		}
		g, err := volume.MakeGrid(d, counts)
		if err != nil {
			// Counts exceeded dims: volumes too small to split further.
			if n > d.X*d.Y*d.Z {
				return nil, fmt.Errorf("core: cannot brick %v into %d pieces", d, n)
			}
			continue
		}
		if g.MaxBrickBytes() <= usable {
			return g, nil
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("core: volume %v cannot be bricked to fit %d bytes", d, usable)
		}
	}
}
