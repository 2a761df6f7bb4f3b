package core

import (
	"reflect"
	"runtime"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/mapreduce"
	"gvmr/internal/trace"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// TestMapBricksRunsNoJob maps one unit set with options that shape only
// the engine's schedule — plain, dynamic assignment, from disk, in situ —
// each traced: a worker simulates no job, so every run returns the same
// stripes and charges and nothing is traced.
func TestMapBricksRunsNoJob(t *testing.T) {
	opt := skullOptions(t, 32, 48, 4)
	opt.Shading, opt.BricksPerGPU = true, 2
	ids := []int{5, 0, 3, 6}
	var want *MapResult
	for _, c := range []struct {
		name string
		set  func(*Options)
	}{
		{"plain", func(*Options) {}},
		{"dynamic", func(o *Options) { o.Assign = mapreduce.AssignDynamic }},
		{"fromdisk", func(o *Options) { o.FromDisk = true }},
		{"insitu", func(o *Options) { o.InSitu = true }},
	} {
		o := opt
		c.set(&o)
		o.Trace = &trace.Log{}
		got, err := MapBricks(cluster.AC(2), o, ids, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := o.Trace.Len(); n != 0 {
			t.Errorf("%s: %d spans traced, want none", c.name, n)
		}
		if want == nil {
			want = got
			if len(got.Stripes) != len(ids) || got.FragmentCount() == 0 {
				t.Fatalf("premise: %d stripes of %d fragments for %d units", len(got.Stripes), got.FragmentCount(), len(ids))
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stripes or charges differ from the plain run's", c.name)
		}
	}
}

// BenchmarkMapBricks maps two units of a cluster-classic-shaped job
// (skull 128³ → 176², shading, a 4-GPU job) on a 1-GPU node, as one /map
// batch does, and fails above 1.1 MB allocated a batch: ≈ 1.46 MB
// (≈ 480 allocations) while the batch ran a whole simulated map job,
// ≈ 0.81 MB (≈ 280) since it maps on the host alone.
func BenchmarkMapBricks(b *testing.B) {
	src, err := dataset.New(dataset.Skull, volume.Cube(128))
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{
		Source: src, TF: transfer.SkullPreset(),
		Width: 176, Height: 176,
		GPUs: 4, Shading: true, StepVoxels: 1, TerminationAlpha: 0.98,
	}
	if opt.Camera, err = OrbitCamera(src, opt.Width, opt.Height, 30); err != nil {
		b.Fatal(err)
	}
	batch := func() {
		if _, err := MapBricks(cluster.AC(1), opt, []int{0, 1}, 0); err != nil {
			b.Fatal(err)
		}
	}
	batch() // materialise the dataset into the staging cache
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
	b.StopTimer()
	runtime.ReadMemStats(&mem1)
	if per := (mem1.TotalAlloc - mem0.TotalAlloc) / uint64(b.N); per > 1_100_000 {
		b.Fatalf("%d bytes allocated a batch, want at most 1.1 MB", per)
	}
}
