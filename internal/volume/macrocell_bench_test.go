package volume_test

import (
	"math/bits"
	"testing"

	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// TestSkullMacrocellsBruteForce holds the grid of the 256³ skull, the
// volume the benchmark renders, to the cell-by-cell specification.
func TestSkullMacrocellsBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and checks the 256³ skull grid")
	}
	src, err := dataset.New(dataset.Skull, volume.Cube(256))
	if err != nil {
		t.Fatal(err)
	}
	v, err := volume.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	volume.CheckGridBruteForce(t, v.Data, v.Dims, volume.BuildMacrocells(v.Data, v.Dims, [3]int{}))
}

// BenchmarkMacrocellBuild is BuildMacrocells — ranges and flat bits in one
// separable pass — on the two region sizes that pay it: the whole 256³
// skull (once per staged volume, inside setup_s) and one 18³ file brick of
// the 144³ skull with its ghost layer, cut through the shell (the grain of
// the pager's pages, where fixed costs show).
func BenchmarkMacrocellBuild(b *testing.B) {
	materialize := func(edge int) (volume.Source, *volume.Volume) {
		src, err := dataset.New(dataset.Skull, volume.Cube(edge))
		if err != nil {
			b.Fatal(err)
		}
		v, err := volume.Materialize(src)
		if err != nil {
			b.Fatal(err)
		}
		return src, v
	}
	_, v := materialize(256)
	paged, _ := materialize(144)
	page := volume.Region{Org: [3]int{36, 71, 71}, Ext: volume.Cube(20)}
	pageData := make([]float32, page.Ext.Voxels())
	if err := paged.Fill(page, pageData); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []float32
		reg  volume.Region
	}{
		{"skull-256", v.Data, volume.Region{Ext: v.Dims}},
		{"page-20", pageData, page},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var mc *volume.Macrocells
			for i := 0; i < b.N; i++ {
				mc = volume.BuildMacrocells(c.data, c.reg.Ext, c.reg.Org)
			}
			flat := 0
			for _, w := range mc.Flat {
				flat += bits.OnesCount64(w)
			}
			b.ReportMetric(float64(flat), "flat-cells")
		})
	}
}
