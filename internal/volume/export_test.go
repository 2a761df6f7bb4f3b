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
