package core

import (
	"fmt"
	"sort"
	"sync"

	"gvmr/internal/volume"
)

// Partition assigns bricks to map units. The default (nil) is the
// paper's convex regime: one unit per brick, so a ray crosses each unit
// at most once and every (unit, pixel) cell holds at most one fragment.
// A non-nil Partition groups bricks into arbitrary — possibly
// non-convex — units: a ray may then re-enter a unit once per connected
// span, and its (unit, pixel) cell carries a fragment *list*, one
// fragment per span (Sahistan et al., arXiv 2209.14537). The compositing
// fold is unchanged either way because surviving entry depths stay
// strictly distinct per pixel (DESIGN.md §12).
type Partition interface {
	// Name identifies the assignment for stats, request keys and wire
	// specs (e.g. "interleave:2").
	Name() string
	// Parts returns the number of units the grid is split into.
	Parts(g *volume.Grid) int
	// Assign maps a brick to its unit in [0, Parts(g)).
	Assign(b volume.Brick, g *volume.Grid) int
}

// Interleaved is the deliberately adversarial builtin: bricks are
// assigned by the parity sum of their grid index, (ix+iy+iz) mod
// NumParts — a 3D checkerboard. Every axis-aligned step between
// neighbouring bricks changes the unit, so any ray crossing k bricks
// re-enters its units ~k/NumParts times: the worst case for a renderer
// that assumes convex partitions, and exactly the case the non-convex
// golden battery pins.
type Interleaved struct {
	NumParts int
}

// Name implements Partition.
func (ip Interleaved) Name() string { return fmt.Sprintf("interleave:%d", ip.NumParts) }

// Parts implements Partition.
func (ip Interleaved) Parts(*volume.Grid) int { return ip.NumParts }

// Assign implements Partition.
func (ip Interleaved) Assign(b volume.Brick, _ *volume.Grid) int {
	return (b.Index[0] + b.Index[1] + b.Index[2]) % ip.NumParts
}

// partitionRegistry maps scheme names to builders so remote job specs
// and HTTP requests can name partitions without shipping code.
var partitionRegistry = struct {
	sync.Mutex
	m map[string]func(parts int) (Partition, error)
}{m: map[string]func(parts int) (Partition, error){}}

func init() {
	RegisterPartition("interleave", func(parts int) (Partition, error) {
		return Interleaved{NumParts: parts}, nil
	})
}

// RegisterPartition registers a named partition scheme. The builder
// receives the requested unit count. Registering a taken name panics:
// scheme names are part of the wire contract between coordinators and
// workers, so silent replacement would let two daemons disagree on what
// a name means.
func RegisterPartition(scheme string, build func(parts int) (Partition, error)) {
	if scheme == "" || build == nil {
		panic("core: RegisterPartition with empty scheme or nil builder")
	}
	partitionRegistry.Lock()
	defer partitionRegistry.Unlock()
	if _, dup := partitionRegistry.m[scheme]; dup {
		panic(fmt.Sprintf("core: partition scheme %q registered twice", scheme))
	}
	partitionRegistry.m[scheme] = build
}

// BuildPartition constructs a registered scheme with the given unit
// count. parts must be in [2, 4096]: 1 is the convex default (pass nil
// instead) and the upper bound keeps hostile requests from planning
// absurd unit tables.
func BuildPartition(scheme string, parts int) (Partition, error) {
	if parts < 2 || parts > 4096 {
		return nil, fmt.Errorf("core: partition parts %d outside [2, 4096]", parts)
	}
	partitionRegistry.Lock()
	build := partitionRegistry.m[scheme]
	partitionRegistry.Unlock()
	if build == nil {
		return nil, fmt.Errorf("core: unknown partition scheme %q", scheme)
	}
	return build(parts)
}

// PartitionSchemes returns the registered scheme names, sorted.
func PartitionSchemes() []string {
	partitionRegistry.Lock()
	defer partitionRegistry.Unlock()
	names := make([]string, 0, len(partitionRegistry.m))
	for name := range partitionRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// planUnits groups the grid's bricks into map units under p: units[u]
// lists unit u's bricks ascending by brick ID (the canonical in-unit
// order every layer folds in). Every unit must be non-empty — an empty
// unit would make unit counts ambiguous across layers — and every
// assignment must land in [0, Parts).
func planUnits(g *volume.Grid, p Partition) ([][]volume.Brick, error) {
	n := p.Parts(g)
	if n < 1 {
		return nil, fmt.Errorf("core: partition %q has %d units", p.Name(), n)
	}
	units := make([][]volume.Brick, n)
	for _, b := range g.Bricks {
		u := p.Assign(b, g)
		if u < 0 || u >= n {
			return nil, fmt.Errorf("core: partition %q assigns brick %d to unit %d of %d",
				p.Name(), b.ID, u, n)
		}
		units[u] = append(units[u], b)
	}
	for u, bricks := range units {
		if len(bricks) == 0 {
			return nil, fmt.Errorf("core: partition %q leaves unit %d of %d empty on a %d-brick grid",
				p.Name(), u, n, g.NumBricks())
		}
	}
	return units, nil
}

// NumUnits returns the number of map units a job with these options has
// on the given grid: the partition's unit count, or one per brick for
// the convex default. Coordinators and workers both call this so their
// placement, completion counting and stripe validation agree.
func NumUnits(g *volume.Grid, p Partition) (int, error) {
	if p == nil {
		return g.NumBricks(), nil
	}
	units, err := planUnits(g, p)
	if err != nil {
		return 0, err
	}
	return len(units), nil
}

// jobUnits returns the job's unit table: planUnits under a Partition,
// one singleton unit per brick (unit ID = brick ID) otherwise.
func jobUnits(g *volume.Grid, p Partition) ([][]volume.Brick, error) {
	if p == nil {
		units := make([][]volume.Brick, g.NumBricks())
		for i, b := range g.Bricks {
			units[i] = []volume.Brick{b}
		}
		return units, nil
	}
	return planUnits(g, p)
}

// planFrame tells a source that can use it (a volume.FramePlanner: the v2
// pager, bare or embedded in a wrapper) which ghost regions the job's
// units will stage. The returned func must run when the job ends.
func planFrame(src volume.Source, units [][]volume.Brick) (done func()) {
	fp, ok := src.(volume.FramePlanner)
	if !ok {
		return func() {}
	}
	var ghosts []volume.Region
	for _, bricks := range units {
		for _, b := range bricks {
			ghosts = append(ghosts, b.Ghost)
		}
	}
	return fp.PlanFrame(ghosts)
}
