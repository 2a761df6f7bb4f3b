package render

import (
	"path/filepath"
	"testing"

	"gvmr/internal/cache"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// TestPagedFramesShareSkipGrids: the skip-grid memo keys on the macrocell
// grid's pointer, and a copy-backed brick used to build a private grid at every
// stage — so on the paged path the memo never hit, rebuilt every brick's
// mask every frame and filled up with dead entries. With the pager
// keeping a planned frame's grids, the second and third frame find one
// skip grid per brick and the memo does not grow.
func TestPagedFramesShareSkipGrids(t *testing.T) {
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
	memoSize := func() int { return len(skipGrids.Entries()) }
	first := frame()
	size := memoSize()
	for n := 2; n <= 3; n++ {
		for i, g := range frame() {
			if g == nil || g != first[i] {
				t.Errorf("frame %d brick %d: skip grid %p, first frame's was %p", n, i, g, first[i])
			}
		}
		if got := memoSize(); got != size {
			t.Errorf("frame %d: the memo grew from %d to %d entries", n, size, got)
		}
	}
}

// TestSkipGridMemoIsLRU: a grid touched every round survives any number
// of cold (grid, TF) pairs pushed through the memo past its budget — the
// count-capped map it replaces evicted an arbitrary entry and promised no
// such thing.
func TestSkipGridMemoIsLRU(t *testing.T) {
	real := skipGrids
	defer func() { skipGrids = real }()
	tf := transfer.SkullPreset()
	grid := func() *volume.Macrocells {
		return volume.New(volume.Cube(16)).Macrocells()
	}
	hot := grid()
	per := int64(hot.NumCells()) + hot.Bytes()
	skipGrids = cache.New[skipKey, *skipGrid](4 * per)
	first := occupancyFor(hot, tf)
	for round := 0; round < 12; round++ {
		occupancyFor(grid(), tf)
		if g := occupancyFor(hot, tf); g != first {
			t.Fatalf("round %d: the hot grid's skip grid was rebuilt", round)
		}
	}
	if st := skipGrids.Stats(); st.Evictions != 9 || st.Misses != 13 || st.BytesInUse != 4*per {
		t.Errorf("stats %+v, want 13 builds, 9 cold evictions and a full budget of %d", st, 4*per)
	}
}
