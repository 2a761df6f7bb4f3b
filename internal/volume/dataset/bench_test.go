package dataset

import (
	"fmt"
	"testing"

	"gvmr/internal/volume"
)

// BenchmarkMaterialize is the cold fill of the skull phantom through
// FuncSource.Fill — the whole volume, as the staging cache materialises
// it on a render's first frame.
func BenchmarkMaterialize(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("skull-%d", n), func(b *testing.B) {
			d := volume.Cube(n)
			src, err := New(Skull, d)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float32, d.Voxels())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := src.Fill(volume.Region{Ext: d}, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Voxels()), "ns/voxel")
		})
	}
}
