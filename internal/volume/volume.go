// Package volume provides the volumetric-data substrate: dense float32
// scalar fields, world-space mapping, brick decomposition with one-voxel
// ghost layers (so trilinear sampling is seamless across brick borders),
// streaming sources for out-of-core rendering, and a simple raw file format.
//
// # Staging cache
//
// Analytic sources (FuncSource) are expensive to evaluate and perfectly
// reproducible, so the package also provides a process-wide staging cache
// (StagingCache, with the shared instance Cache and the helper Cached).
// Wrapping a source routes every Fill through a dense volume that is
// materialised exactly once per source identity (Name + Dims); brick
// staging through StageBrick then serves zero-copy views of that volume.
// The cache is bounded (default min(8 GiB, half of available memory);
// GVMR_STAGING_BYTES overrides, "0"/"off" disables) with least-recently-
// used eviction, and sources whose volume exceeds the budget bypass it
// entirely, preserving the lazy out-of-core path for huge datasets. See
// cache.go for the policy details.
//
// Conventions: voxel (i,j,k) stores the field value at the continuous
// voxel-space position (i+0.5, j+0.5, k+0.5); data is laid out x-fastest.
package volume

import "fmt"

// Dims is the extent of a volume or region in voxels.
type Dims struct {
	X, Y, Z int
}

// Voxels returns the total voxel count.
func (d Dims) Voxels() int64 { return int64(d.X) * int64(d.Y) * int64(d.Z) }

// Bytes returns the storage size for float32 samples.
func (d Dims) Bytes() int64 { return d.Voxels() * 4 }

// String renders the dims as "XxYxZ".
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }

// Cube returns n×n×n dims.
func Cube(n int) Dims { return Dims{n, n, n} }

// Region is an axis-aligned voxel-index box [Org, Org+Ext).
type Region struct {
	Org [3]int
	Ext Dims
}

// End returns the exclusive upper corner per axis.
func (r Region) End() [3]int {
	return [3]int{r.Org[0] + r.Ext.X, r.Org[1] + r.Ext.Y, r.Org[2] + r.Ext.Z}
}

// Contains reports whether the voxel index (x,y,z) lies in the region.
func (r Region) Contains(x, y, z int) bool {
	e := r.End()
	return x >= r.Org[0] && x < e[0] && y >= r.Org[1] && y < e[1] && z >= r.Org[2] && z < e[2]
}

// Volume is a dense in-memory scalar field.
type Volume struct {
	Dims Dims
	Data []float32 // x-fastest, length Dims.Voxels()

	// mc memoises the macrocell summary grid (see macrocell.go); it is
	// built at most once, on first use, after Data stops changing.
	mc *macrocellMemo
}

// New allocates a zero-filled volume.
func New(d Dims) *Volume {
	return &Volume{Dims: d, Data: make([]float32, d.Voxels()), mc: &macrocellMemo{}}
}

// index returns the linear index of voxel (x,y,z); no bounds check.
func (v *Volume) index(x, y, z int) int {
	return (z*v.Dims.Y+y)*v.Dims.X + x
}

// At returns the value of voxel (x,y,z).
func (v *Volume) At(x, y, z int) float32 { return v.Data[v.index(x, y, z)] }

// Set stores the value of voxel (x,y,z).
func (v *Volume) Set(x, y, z int, val float32) { v.Data[v.index(x, y, z)] = val }

// MinMax returns the minimum and maximum sample values. An empty volume
// returns (0, 0).
func (v *Volume) MinMax() (lo, hi float32) {
	if len(v.Data) == 0 {
		return 0, 0
	}
	lo, hi = v.Data[0], v.Data[0]
	for _, s := range v.Data {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}

// Sample trilinearly interpolates the field at the continuous voxel-space
// position (px,py,pz), clamping at the boundary (CUDA's clamp-to-edge
// texture addressing).
func (v *Volume) Sample(px, py, pz float32) float32 {
	return newSampler(v.Data, v.Dims, Region{Ext: v.Dims}, [3]int{}).Sample(px, py, pz)
}
