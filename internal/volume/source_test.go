package volume_test

import (
	"math"
	"path/filepath"
	"testing"

	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// TestFillWritesEveryVoxel pins the Source contract that lets FillBrick
// hand out recycled ghost buffers unzeroed: a Fill into a buffer poisoned
// with a NaN pattern leaves no poison and the source's bits — for the
// in-RAM, staging-cached, analytic and paged sources, the pager with and
// without a cache, over regions inside one dense brick, inside one
// directory constant, crossing brick cores, and a render brick's ghost.
func TestFillWritesEveryVoxel(t *testing.T) {
	const poison = 0x7fa5a5a5
	src, err := dataset.New(dataset.Skull, volume.Cube(24))
	if err != nil {
		t.Fatal(err)
	}
	v, err := volume.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skull.gvmr")
	if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 6, Compress: true}); err != nil {
		t.Fatal(err)
	}
	open := func(cache *volume.StagingCache) *volume.PagedSource {
		ps, err := volume.OpenFileV2(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		ps.SetCache(cache)
		return ps
	}
	paged, uncached := open(volume.NewStagingCache(1<<20)), open(nil)
	render, err := volume.MakeGrid(v.Dims, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	regions := map[string]volume.Region{
		"whole":          {Ext: v.Dims},
		"dense-brick":    {Org: [3]int{12, 12, 12}, Ext: volume.Cube(6)},
		"constant-brick": {Ext: volume.Cube(6)},
		"crossing-cores": {Org: [3]int{3, 4, 5}, Ext: volume.Dims{X: 13, Y: 9, Z: 11}},
		"ghost":          render.Bricks[5].Ghost,
	}
	sources := map[string]volume.Source{
		"volume":         volume.NewVolumeSource(v, "skull"),
		"cached":         volume.NewStagingCache(1 << 20).Wrap(src),
		"dataset":        src,
		"paged":          paged,
		"paged-uncached": uncached,
	}
	for rname, r := range regions {
		want := make([]float32, r.Ext.Voxels())
		if err := volume.NewVolumeSource(v, "ref").Fill(r, want); err != nil {
			t.Fatal(err)
		}
		for sname, s := range sources {
			dst := make([]float32, r.Ext.Voxels())
			for i := range dst {
				dst[i] = math.Float32frombits(poison)
			}
			if err := s.Fill(r, dst); err != nil {
				t.Fatalf("%s/%s: %v", sname, rname, err)
			}
			for i, got := range dst {
				if math.Float32bits(got) == poison {
					t.Fatalf("%s/%s: voxel %d left unwritten", sname, rname, i)
				}
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					t.Fatalf("%s/%s: voxel %d is %v, want %v", sname, rname, i, got, want[i])
				}
			}
		}
	}
	if _, ok := sources["cached"].(*volume.CachedSource); !ok {
		t.Error("the cached source is not a CachedSource: the case tests nothing")
	}
	if lo, hi, _ := paged.RegionRange(regions["dense-brick"]); lo == hi {
		t.Error("the dense-brick region is one value: the case tests nothing")
	}
	if lo, hi, _ := paged.RegionRange(regions["constant-brick"]); lo != hi {
		t.Error("the constant-brick region holds a range: the case tests nothing")
	}
}
