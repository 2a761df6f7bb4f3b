package render

import (
	"path/filepath"
	"testing"

	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// TestPagedFramesShareSkipGrids: occCache keys on the macrocell grid's
// pointer, and a copy-backed brick used to build a private grid at every
// stage — so on the paged path the memo never hit, rebuilt every brick's
// mask every frame and filled up with dead entries. With the pager
// keeping a planned frame's grids, the second and third frame find one
// skip grid per brick and the memo does not grow.
func TestPagedFramesShareSkipGrids(t *testing.T) {
	// Start from an empty memo: at its 64-entry cap an insert evicts an
	// arbitrary entry, and earlier tests' grids would then cost this one
	// a first-frame grid.
	occCache.Lock()
	clear(occCache.m)
	occCache.bytes = 0
	occCache.Unlock()
	src, err := dataset.New(dataset.Skull, volume.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skull.gvmr")
	if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 8, Compress: true}); err != nil {
		t.Fatal(err)
	}
	ps, err := volume.OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.SetCache(volume.NewStagingCache(1 << 20))
	grid, err := volume.MakeGrid(ps.Dims(), [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	var ghosts []volume.Region
	for _, b := range grid.Bricks {
		ghosts = append(ghosts, b.Ghost)
	}
	prm := Params{TF: transfer.SkullPreset(), StepVoxels: 1, TerminationAlpha: 0.98}
	frame := func() []*skipGrid {
		done := ps.PlanFrame(ghosts)
		defer done()
		var grids []*skipGrid
		for _, b := range grid.Bricks {
			bd, err := volume.FillBrick(ps, b)
			if err != nil {
				t.Fatal(err)
			}
			grids = append(grids, prm.PrepareBrick(bd).skip)
		}
		return grids
	}
	memoSize := func() int {
		occCache.Lock()
		defer occCache.Unlock()
		return len(occCache.m)
	}
	first := frame()
	size := memoSize()
	for n := 2; n <= 3; n++ {
		for i, g := range frame() {
			if g == nil || g != first[i] {
				t.Errorf("frame %d brick %d: skip grid %p, first frame's was %p", n, i, g, first[i])
			}
		}
		if got := memoSize(); got != size {
			t.Errorf("frame %d: occCache grew from %d to %d entries", n, size, got)
		}
	}
}
