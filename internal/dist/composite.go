package dist

import (
	"runtime"
	"sort"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/schedule"
	"gvmr/internal/sim"
	"gvmr/internal/vec"
)

// streamComposite is the coordinator-local reduce phase, fed stripes as
// batch responses arrive instead of barriering on the full set: the
// partition scan of an early batch overlaps the map phase of a slow one.
// Because fragments are bucketed per (shard, brick) and the fold walks
// bricks in ascending order, the final floats are independent of arrival
// order — the determinism the golden digests enforce.
type streamComposite struct {
	width, height int
	bg            vec.V4
	part          mapreduce.Partitioner
	reducers      int
	spec          cluster.Spec

	shards []map[int][]composite.Fragment // shard → brick → fragments, emission order
	total  int64
}

func newStreamComposite(width, height int, bg vec.V4, part mapreduce.Partitioner,
	reducers int, spec cluster.Spec) *streamComposite {
	if part == nil {
		part = mapreduce.RoundRobin{}
	}
	if reducers < 1 {
		reducers = 1
	}
	sc := &streamComposite{
		width: width, height: height, bg: bg,
		part: part, reducers: reducers, spec: spec,
		shards: make([]map[int][]composite.Fragment, reducers),
	}
	for r := range sc.shards {
		sc.shards[r] = map[int][]composite.Fragment{}
	}
	return sc
}

// add partitions one brick's stripe into the shard buckets — the
// modeled partition scan, run as responses land.
func (sc *streamComposite) add(s core.BrickStripe) {
	for _, f := range s.Frags {
		r := sc.part.Partition(f.Key, sc.reducers)
		sc.shards[r][s.Brick] = append(sc.shards[r][s.Brick], f)
	}
	sc.total += int64(len(s.Frags))
}

// finish folds the accumulated shards into the final image and returns
// it with the modeled reduce charge: one partition scan over everything,
// then the widest shard's sort and blend (shards run in parallel on the
// display node, like the engine's co-located reducers). The charge is
// computed from fragment counts alone — independent of placement,
// faults, and the host machine.
func (sc *streamComposite) finish() (*img.Image, sim.Time) {
	// Pixels no fragment reaches keep the same background the in-process
	// reducers never touch.
	out := img.New(sc.width, sc.height, composite.Finalize(composite.Fragment{}.Color(), sc.bg))

	shardCount := make([]int64, sc.reducers)
	for r, m := range sc.shards {
		for _, frags := range m {
			shardCount[r] += int64(len(frags))
		}
	}
	if sc.total > 0 {
		sc.directFold(out)
	}

	var widest int64
	for _, n := range shardCount {
		if n > widest {
			widest = n
		}
	}
	charge := sim.WorkTime(float64(sc.total), sc.spec.PartitionRate) +
		sim.WorkTime(float64(widest), sc.spec.SortRate) +
		sim.WorkTime(float64(widest), sc.spec.CompositeRate)
	return out, charge
}

// directFold is the direct-send composite: each shard's buckets are
// concatenated ascending by brick (the canonical order, the in-process
// engine's layout), counting-sorted and composited. Shards hold disjoint
// pixel keys, so they fold concurrently.
func (sc *streamComposite) directFold(out *img.Image) {
	keyRange := int32(sc.width * sc.height)
	workers := sc.reducers
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	// Shard errors are impossible (pure computation); ignore the error
	// slot of the pool API.
	_, _ = schedule.Map(workers, sc.reducers, func(r int) (struct{}, error) {
		m := sc.shards[r]
		if len(m) == 0 {
			return struct{}{}, nil
		}
		ids := make([]int, 0, len(m))
		n := 0
		for id, frags := range m {
			ids = append(ids, id)
			n += len(frags)
		}
		sort.Ints(ids)
		shard := make([]mapreduce.KV[composite.Fragment], 0, n)
		for _, id := range ids {
			for _, f := range m[id] {
				shard = append(shard, mapreduce.KV[composite.Fragment]{Key: f.Key, Val: f})
			}
		}
		keys, groups := mapreduce.CountingSort(shard, keyRange)
		for i, k := range keys {
			out.SetKey(k, composite.CompositePixel(groups[i], sc.bg))
		}
		return struct{}{}, nil
	})
}
