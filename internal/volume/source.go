package volume

import (
	"fmt"

	"gvmr/internal/schedule"
)

// Source produces voxel data for arbitrary regions of a (possibly larger
// than memory) volume. It is the abstraction that lets the renderer stream
// bricks in an out-of-core fashion: from an in-memory array, an analytic
// field, or a file.
type Source interface {
	// Name identifies the source (dataset name or file path).
	Name() string
	// Dims returns the full volume extent.
	Dims() Dims
	// Fill writes the field over region r into dst (x-fastest within
	// r.Ext); len(dst) must be r.Ext.Voxels(). A successful Fill writes
	// every element of dst: FillBrick hands it recycled buffers holding an
	// earlier brick's voxels, unzeroed.
	Fill(r Region, dst []float32) error
}

// VolumeSource serves regions out of an in-memory Volume.
type VolumeSource struct {
	V   *Volume
	Tag string
}

// NewVolumeSource wraps an in-memory volume as a Source.
func NewVolumeSource(v *Volume, tag string) *VolumeSource {
	return &VolumeSource{V: v, Tag: tag}
}

// Name implements Source.
func (s *VolumeSource) Name() string { return s.Tag }

// Dims implements Source.
func (s *VolumeSource) Dims() Dims { return s.V.Dims }

// Fill implements Source by copying rows out of the dense array.
func (s *VolumeSource) Fill(r Region, dst []float32) error {
	if err := checkRegion(s.V.Dims, r, len(dst)); err != nil {
		return err
	}
	copyRegion(s.V, r, dst)
	return nil
}

// copyRegion copies region r of v into dst row-wise; the region must
// already be validated against v.Dims.
func copyRegion(v *Volume, r Region, dst []float32) {
	e := r.End()
	di := 0
	for z := r.Org[2]; z < e[2]; z++ {
		for y := r.Org[1]; y < e[1]; y++ {
			src := v.Data[v.index(r.Org[0], y, z):v.index(e[0], y, z)]
			copy(dst[di:di+len(src)], src)
			di += len(src)
		}
	}
}

// RowFiller evaluates a whole x-row of an analytic field at once:
// dst[i] = field(xs[i], y, z) with len(dst) == len(xs), xs being the
// ascending, evenly spaced voxel centres of one row, all coordinates
// normalised to [0,1]. Batch evaluation lets field implementations hoist
// per-row terms and evaluate lattice noise incrementally, which is
// several times faster than per-voxel calls.
type RowFiller func(dst []float32, xs []float64, y, z float64)

// FuncSource evaluates an analytic field lazily, one x-row at a time; it
// backs the synthetic datasets so that volumes too big for the staging
// cache never need to be materialised.
type FuncSource struct {
	Tag  string
	Size Dims
	Rows RowFiller
}

// NewFuncSourceRows builds a Source from an analytic field's row
// evaluator.
func NewFuncSourceRows(tag string, d Dims, rows RowFiller) *FuncSource {
	return &FuncSource{Tag: tag, Size: d, Rows: rows}
}

// Name implements Source.
func (s *FuncSource) Name() string { return s.Tag }

// Dims implements Source.
func (s *FuncSource) Dims() Dims { return s.Size }

// StageCacheable implements Stageable: analytic fields are deterministic
// per (tag, dims), so staging caches may materialise them once.
func (s *FuncSource) StageCacheable() bool { return true }

// Fill implements Source, evaluating the field's rows at voxel centers
// in parallel over host cores (z-slabs).
func (s *FuncSource) Fill(r Region, dst []float32) error {
	if err := checkRegion(s.Size, r, len(dst)); err != nil {
		return err
	}
	e := r.End()
	invX := 1 / float64(s.Size.X)
	invY := 1 / float64(s.Size.Y)
	invZ := 1 / float64(s.Size.Z)
	rowLen := r.Ext.X
	slabLen := r.Ext.X * r.Ext.Y

	// The normalized x-coordinates are shared by every row of the region.
	xs := make([]float64, r.Ext.X)
	for x := r.Org[0]; x < e[0]; x++ {
		xs[x-r.Org[0]] = (float64(x) + 0.5) * invX
	}
	_, err := schedule.Map(schedule.Workers(r.Ext.Z), r.Ext.Z, func(dz int) (struct{}, error) {
		nz := (float64(r.Org[2]+dz) + 0.5) * invZ
		base := dz * slabLen
		for y := r.Org[1]; y < e[1]; y++ {
			ny := (float64(y) + 0.5) * invY
			row := base + (y-r.Org[1])*rowLen
			s.Rows(dst[row:row+rowLen], xs, ny, nz)
		}
		return struct{}{}, nil
	})
	return err
}

// Materialize evaluates an entire source into a dense Volume. Intended for
// small volumes (tests, reference renders).
func Materialize(s Source) (*Volume, error) {
	v := New(s.Dims())
	if err := s.Fill(Region{Ext: s.Dims()}, v.Data); err != nil {
		return nil, err
	}
	return v, nil
}

func checkRegion(d Dims, r Region, dstLen int) error {
	e := r.End()
	if r.Org[0] < 0 || r.Org[1] < 0 || r.Org[2] < 0 ||
		e[0] > d.X || e[1] > d.Y || e[2] > d.Z ||
		r.Ext.X <= 0 || r.Ext.Y <= 0 || r.Ext.Z <= 0 {
		return fmt.Errorf("volume: region %v out of bounds for %v", r, d)
	}
	if int64(dstLen) != r.Ext.Voxels() {
		return fmt.Errorf("volume: dst len %d != region voxels %d", dstLen, r.Ext.Voxels())
	}
	return nil
}
