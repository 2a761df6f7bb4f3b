package volume

// PlannedUses sums the pager's outstanding planned page uses and counts
// its live plans — exported for the render-level tests in package
// volume_test, which cannot see the fields.
func PlannedUses(s *PagedSource) (uses, plans int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.planned {
		uses += int(n)
	}
	return uses, len(s.plans)
}

// FreeGhostBytes returns the bytes of ghost buffers on the free list.
func FreeGhostBytes() int64 {
	ghostFree.mu.Lock()
	defer ghostFree.mu.Unlock()
	return ghostFree.bytes
}

// CheckGridBruteForce is checkGridBruteForce, for grids over datasets
// that package volume's own tests cannot import.
var CheckGridBruteForce = checkGridBruteForce

// ResidentCopy returns a copy-backed brick holding bd's voxels inside box
// and outside everywhere else in the ghost region, sharing bd's macrocell
// grid: a render from it differs from one from bd only where a fetch
// reads a voxel outside box.
func ResidentCopy(bd *BrickData, box Region, outside float32) *BrickData {
	g := bd.Brick.Ghost
	src, dims, org := bd.Data, g.Ext, g.Org
	if bd.full != nil {
		src, dims, org = bd.full, bd.fullDims, [3]int{}
	}
	data := make([]float32, g.Ext.Voxels())
	for i := range data {
		x, y, z := g.Org[0]+i%g.Ext.X, g.Org[1]+i/g.Ext.X%g.Ext.Y, g.Org[2]+i/(g.Ext.X*g.Ext.Y)
		data[i] = outside
		if box.Contains(x, y, z) {
			data[i] = src[((z-org[2])*dims.Y+y-org[1])*dims.X+x-org[0]]
		}
	}
	mc := bd.Cells()
	cp := &BrickData{Brick: bd.Brick, Data: data, mcFn: func() *Macrocells { return mc }}
	cp.smp = cp.newSampler()
	return cp
}
