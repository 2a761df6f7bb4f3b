package mapreduce

import (
	"fmt"

	"gvmr/internal/cluster"
	"gvmr/internal/gpu"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
)

// reducerState is one reducer process: it collects batches from every
// worker, counting-sorts them by key (θ(n), exploiting the dense integer
// key restriction) and folds each key group through the user Reducer.
type reducerState[V any] struct {
	index int // also the co-located worker's index
	node  *cluster.Node
	dev   *gpu.Device
	impl  Reducer[V]
	inbox *sim.Chan[message[V]]
	recv  [][]KV[V] // received batches, sorted where they lie
	stats ReducerStats
}

func (rs *reducerState[V]) run(p *sim.Proc, cfg *configView) {
	rs.stats.Index = rs.index
	pending, n := cfg.workers, 0
	for pending > 0 {
		msg, ok := rs.inbox.Recv(p)
		if !ok {
			return
		}
		if msg.done {
			pending--
			continue
		}
		n += len(msg.kvs)
		rs.recv = append(rs.recv, msg.kvs)
	}
	rs.stats.Received = int64(n)
	if n == 0 {
		return
	}

	// Sort phase: counting sort, charged on CPU or GPU per config. The
	// GPU path pays the PCIe round trip of the raw pairs.
	kvBytes := int64(4 + cfg.valueBytes)
	sortStart := p.Now()
	if cfg.sortOn == OnGPU {
		rs.chargeGPU(p, float64(n*int(kvBytes)), float64(n), cfg.sortRate)
	} else {
		rs.node.CPUWork(p, float64(n), cfg.sortRate)
	}
	keys, groups := countingSort(rs.recv, cfg.keyRange)
	rs.stats.Sort = p.Now() - sortStart
	cfg.tr.Add(trace.Span{
		Name: "sort", Cat: "sort",
		Lane: fmt.Sprintf("reducer%d", rs.index), Start: sortStart, End: p.Now(),
	})

	// Reduce phase: fold every key group.
	reduceStart := p.Now()
	if cfg.reduceOn == OnGPU {
		rs.chargeGPU(p, float64(n*int(kvBytes)), float64(n), cfg.reduceRate)
	} else {
		rs.node.CPUWork(p, float64(n), cfg.reduceRate)
	}
	for i, k := range keys {
		rs.impl.Reduce(k, groups[i])
	}
	rs.stats.Reduce = p.Now() - reduceStart
	cfg.tr.Add(trace.Span{
		Name: "reduce", Cat: "reduce",
		Lane: fmt.Sprintf("reducer%d", rs.index), Start: reduceStart, End: p.Now(),
	})
	rs.recv = nil
}

// gpuReduceSpeedup is the modeled throughput multiple a GPU enjoys over
// one CPU core for the reduce/sort inner loops (data-parallel blending);
// it applies only when ReduceOn/SortOn is OnGPU.
const gpuReduceSpeedup = 8

// chargeGPU models running a reduce-side stage on the co-located GPU: a
// host-to-device copy of the data, the data-parallel work at a multiple of
// the single-core CPU rate, and the result read-back. It occupies the
// device engine, contending with any mapping still in flight there.
func (rs *reducerState[V]) chargeGPU(p *sim.Proc, bytes, work, cpuRate float64) {
	if bytes > 0 {
		t := rs.dev.PCIe.TransferTime(int64(bytes))
		rs.dev.PCIe.Link.Use(p, t)
	}
	rs.dev.Occupy(p, sim.WorkTime(work, cpuRate*gpuReduceSpeedup))
	if bytes > 0 {
		t := rs.dev.PCIe.TransferTime(int64(bytes) / 4) // results are smaller
		rs.dev.PCIe.Link.Use(p, t)
	}
}

// CountingSort groups pairs by key in θ(n + keyRange): the sort stage the
// paper specialises given that "the library knows the minimum and maximum
// keys for each node". It is stable within a key, preserving arrival
// order, which keeps runs deterministic. Exported because it is a useful
// primitive for library users with the same dense-key restriction.
func CountingSort[V any](kvs []KV[V], keyRange int32) (keys []int32, groups [][]V) {
	return countingSort([][]KV[V]{kvs}, keyRange)
}

// countingSort is CountingSort over the pairs of batches, taken in order.
// One keyRange-sized array serves throughout: per-key counts, prefix-
// summed into write cursors, which the scatter leaves at the group ends.
func countingSort[V any](batches [][]KV[V], keyRange int32) (keys []int32, groups [][]V) {
	pos := make([]int32, keyRange)
	for _, b := range batches {
		for i := range b {
			pos[b[i].Key]++
		}
	}
	var total, distinct int32 // total ends as the pair count
	for k, c := range pos {
		pos[k] = total
		total += c
		if c > 0 {
			distinct++
		}
	}
	flat := make([]V, total)
	for _, b := range batches {
		for i := range b {
			k := b[i].Key
			flat[pos[k]] = b[i].Val
			pos[k]++
		}
	}
	keys = make([]int32, 0, distinct)
	groups = make([][]V, 0, distinct)
	start := int32(0)
	for k, end := range pos {
		if end > start {
			keys = append(keys, int32(k))
			groups = append(groups, flat[start:end])
			start = end
		}
	}
	return keys, groups
}

// configView is the non-generic slice of Config the reducer needs (it
// keeps reducerState monomorphic in V only).
type configView struct {
	tr         *trace.Log
	workers    int
	keyRange   int32
	valueBytes int
	sortOn     Placement
	reduceOn   Placement
	sortRate   float64
	reduceRate float64
}
