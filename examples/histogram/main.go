// Histogram: the MapReduce substrate is a library, not just a renderer.
// This example runs a non-rendering job — binning samples of a synthetic
// field into a 64-bucket histogram — on the same simulated multi-GPU
// cluster, honoring the paper's restrictions (dense int32 keys,
// homogeneous values, round-robin partitioning, counting sort).
//
// It imports the in-module mapreduce package directly: the public gvmr
// facade covers rendering, while the substrate underneath is exactly what
// this example drives.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"gvmr/internal/cluster"
	"gvmr/internal/gpu"
	"gvmr/internal/mapreduce"
	"gvmr/internal/sim"
)

const buckets = 64

// sampleChunk is a range of the field to histogram.
type sampleChunk struct {
	id, n int
}

func (c sampleChunk) ID() int      { return c.id }
func (c sampleChunk) Bytes() int64 { return int64(c.n) * 4 }

// histMapper evaluates the field and bins each sample.
type histMapper struct{}

func (histMapper) Init(mapreduce.Ctx, *mapreduce.Worker) error { return nil }

func (histMapper) Stage(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk) ([]float64, error) {
	sc := c.(sampleChunk)
	vals := make([]float64, sc.n)
	for i := range vals {
		x := float64(sc.id*sc.n+i) * 1e-5
		vals[i] = (math.Sin(x*37)*math.Cos(x*11) + 1) / 2 // field in [0,1]
	}
	return vals, nil
}

func (histMapper) Map(p mapreduce.Ctx, w *mapreduce.Worker, c mapreduce.Chunk,
	vals []float64, emit func(mapreduce.KV[int32])) error {
	// The binning itself is the (modeled) GPU work.
	w.RunKernel(p, "histogram", gpu.Stats{Threads: int64(len(vals)), Emitted: int64(len(vals))})
	for _, v := range vals {
		b := int32(v * buckets)
		if b >= buckets {
			b = buckets - 1
		}
		emit(mapreduce.KV[int32]{Key: b, Val: 1})
	}
	return nil
}

// sumReducer folds counts per bucket.
type sumReducer struct {
	counts map[int32]int64
}

func (r *sumReducer) Reduce(key int32, vals []int32) {
	for _, v := range vals {
		r.counts[key] += int64(v)
	}
}

// tinyOr returns small instead of normal when GVMR_EXAMPLE_TINY is set:
// the repo's examples smoke test runs every example at toy dimensions so
// the example code paths stay exercised by tier-1 CI.
func tinyOr(normal, small int) int {
	if os.Getenv("GVMR_EXAMPLE_TINY") != "" {
		return small
	}
	return normal
}

func main() {
	log.SetFlags(0)
	env := sim.NewEnv()
	cl, err := cluster.New(env, cluster.AC(4))
	if err != nil {
		log.Fatal(err)
	}

	var chunks []mapreduce.Chunk
	for i := 0; i < 16; i++ {
		chunks = append(chunks, sampleChunk{id: i, n: tinyOr(100_000, 2_000)})
	}
	var reducers []*sumReducer
	stats, err := mapreduce.Run(mapreduce.Config[int32, []float64]{
		Cluster: cl,
		Mapper:  histMapper{},
		MakeReducer: func(int) mapreduce.Reducer[int32] {
			r := &sumReducer{counts: map[int32]int64{}}
			reducers = append(reducers, r)
			return r
		},
		KeyRange:   buckets,
		ValueBytes: 4,
		Chunks:     chunks,
	})
	if err != nil {
		log.Fatal(err)
	}

	total := int64(0)
	merged := make([]int64, buckets)
	for _, r := range reducers {
		for k, v := range r.counts {
			merged[k] += v
			total += v
		}
	}
	fmt.Printf("histogrammed %d samples in %v of virtual cluster time\n", total, stats.Makespan)
	fmt.Printf("stage means per GPU: map %v, partition+io %v, sort %v, reduce %v\n",
		stats.MeanStage.Map, stats.MeanStage.PartitionIO,
		stats.MeanStage.Sort, stats.MeanStage.Reduce)
	peak := int64(0)
	for _, v := range merged {
		if v > peak {
			peak = v
		}
	}
	for b := 0; b < buckets; b += 4 {
		bar := int(merged[b] * 40 / peak)
		fmt.Printf("%5.2f %s %d\n", float64(b)/buckets, stringsRepeat('#', bar), merged[b])
	}
}

func stringsRepeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
