// Package mapreduce is the paper's primary contribution rebuilt in Go: a
// multi-GPU MapReduce library specialised for volume rendering. It keeps
// the paper's restrictions (§3.1.1) — dense four-byte integer keys,
// homogeneous value sizes, per-pixel round-robin partitioning, θ(n)
// counting sort — and its streaming design: intermediate key-value pairs
// never touch disk; they are partitioned as they are produced and sent
// asynchronously to reducer processes while mapping continues, overlapping
// disk I/O, PCIe transfers, kernel execution and network communication.
//
// The library runs on the simulated cluster (internal/cluster): all
// computation is real Go code; all I/O and kernel time is charged to the
// deterministic virtual clock.
package mapreduce

import (
	"fmt"

	"gvmr/internal/cluster"
	"gvmr/internal/trace"
)

// KV is a key-value pair. Keys are four-byte integers (the paper's
// restriction); values are homogeneous fixed-size records described by
// Config.ValueBytes for wire modeling.
type KV[V any] struct {
	Key int32
	Val V
}

// Chunk is a unit of map work (for the renderer: one map unit — a single
// brick by default, or a group of bricks under a non-convex partition).
type Chunk interface {
	// ID is the chunk's index in the job, used for assignment.
	ID() int
	// Bytes is the chunk's payload size, charged on staging I/O and
	// checked against device memory (the paper's restriction that any
	// single map task must fit in GPU memory).
	Bytes() int64
}

// Mapper turns chunks into key-value pairs. S is the staged representation
// produced by Stage and consumed by Map, letting the engine prefetch the
// next chunk's data (disk) while the current chunk maps (the streaming
// overlap in §3).
type Mapper[V, S any] interface {
	// Init runs once per worker before any Map call (static data upload:
	// view matrices and the like).
	Init(p Ctx, w *Worker) error
	// Stage materialises a chunk's payload. It runs in the worker's
	// loader process, overlapped with Map of the previous chunk. The
	// engine charges disk I/O separately when Config.FromDisk is set.
	Stage(p Ctx, w *Worker, c Chunk) (S, error)
	// Map processes one staged chunk, emitting zero or more key-value
	// pairs per key — a key may repeat within a chunk (the renderer's
	// fragment lists: one fragment per ray span through a non-convex
	// unit), and reducers see every occurrence.
	Map(p Ctx, w *Worker, c Chunk, staged S, emit func(KV[V])) error
}

// Reducer folds all values of one key. Implementations accumulate their
// results internally (e.g. an image shard) and are interrogated by the
// caller after the job completes.
type Reducer[V any] interface {
	// Reduce is called once per key present, with all its values, keys
	// ascending. Values arrive in deterministic (arrival) order.
	Reduce(key int32, vals []V)
}

// Partitioner routes a key to a reducer.
type Partitioner interface {
	Partition(key int32, numReducers int) int
}

// RoundRobin is the paper's per-pixel round-robin partitioning: reducer =
// key mod R. "A modulo is sufficient to determine the reducer to which a
// key-value pair must be sent" (§3.1.1).
type RoundRobin struct{}

// Partition implements Partitioner.
func (RoundRobin) Partition(key int32, numReducers int) int {
	return int(key) % numReducers
}

// Blocked assigns contiguous key ranges to reducers (keys [r·K/R, (r+1)·K/R)
// to reducer r). It is the volume/image-block alternative the paper's §6.1
// discusses for swap-style compositing, kept for the partitioning ablation.
type Blocked struct {
	KeyRange int32
}

// Partition implements Partitioner.
func (b Blocked) Partition(key int32, numReducers int) int {
	if b.KeyRange <= 0 {
		return 0
	}
	r := int(int64(key) * int64(numReducers) / int64(b.KeyRange))
	if r >= numReducers {
		r = numReducers - 1
	}
	return r
}

// Placement selects where a stage executes.
type Placement int

// Placement values.
const (
	OnCPU Placement = iota
	OnGPU
)

// String renders the placement.
func (p Placement) String() string {
	if p == OnGPU {
		return "gpu"
	}
	return "cpu"
}

// AssignMode selects how chunks are distributed over workers.
type AssignMode int

// Assignment modes. Static round robin is what the paper uses ("we
// specifically omitted … advanced scheduling"); with Config.Home set it
// deals each chunk over the workers of the node that already holds its
// data — the in-situ pipeline §7 proposes ("the simulation nodes
// efficiently split the volume and transfer it over a high-speed
// interconnect"). The dynamic queue, kept for the scheduling ablation,
// is one list a worker claims from whenever it has nothing staged.
const (
	AssignStatic AssignMode = iota
	AssignDynamic
)

// Config describes a job. Every job starts after the cluster's per-job
// fixed overhead (cluster.Spec.JobFixedOverhead: process and kernel-
// context setup, collective start); a job that should pay none runs on a
// spec whose overhead is zero.
type Config[V, S any] struct {
	Cluster *cluster.Cluster
	// Workers is the number of mapper workers; worker i drives GPU i.
	// Zero means all GPUs. There is one reducer per worker: reducer r
	// is co-located with worker r.
	Workers int

	Mapper      Mapper[V, S]
	MakeReducer func(r int) Reducer[V]
	Partitioner Partitioner

	// KeyRange bounds keys to [0, KeyRange). Emitting outside it,
	// negative keys included, fails the job.
	KeyRange int32
	// ValueBytes is the wire size of one value (keys add 4 bytes).
	ValueBytes int

	Chunks []Chunk
	Assign AssignMode

	// FlushBytes triggers an asynchronous batch send once a worker has
	// buffered this many bytes for one reducer; the end of every chunk
	// flushes the remainder. Zero means flush only at chunk boundaries.
	FlushBytes int64

	// FromDisk charges a disk read of Chunk.Bytes on staging — the
	// out-of-core path. In-core jobs (data resident in host memory)
	// leave it false, matching the paper's speed-of-light setup.
	FromDisk bool

	// LocalReduce routes every pair a worker emits to its own co-located
	// reducer, ignoring the Partitioner. This is the §6.1 swap-compositing
	// topology: "Every node would consume all generated ray fragments to
	// create its partial image."
	LocalReduce bool

	// ReduceOn places the reduce computation (paper default: CPU, since
	// the required ray-fragment sort makes the GPU round trip not worth
	// it; §3.1.2). SortOn places the counting sort likewise.
	ReduceOn Placement
	SortOn   Placement

	// Home maps a chunk to the node ID that holds its data (the in-situ
	// producer). AssignStatic deals chunks onto workers of their home
	// node when it has any; any chunk staged away from its home is
	// charged an interconnect hand-off of Chunk.Bytes.
	Home func(c Chunk) int

	// Trace, when non-nil, records activity spans (kernels, transfers,
	// sorts, reduces) for timeline export; see internal/trace.
	Trace *trace.Log
}

func (c *Config[V, S]) validate() error {
	if c.Cluster == nil {
		return fmt.Errorf("mapreduce: nil cluster")
	}
	if c.Workers == 0 {
		c.Workers = c.Cluster.TotalGPUs()
	}
	if c.Workers < 1 || c.Workers > c.Cluster.TotalGPUs() {
		return fmt.Errorf("mapreduce: %d workers for %d GPUs", c.Workers, c.Cluster.TotalGPUs())
	}
	if c.Mapper == nil {
		return fmt.Errorf("mapreduce: nil mapper")
	}
	if c.MakeReducer == nil {
		return fmt.Errorf("mapreduce: nil reducer factory")
	}
	if c.Partitioner == nil {
		c.Partitioner = RoundRobin{}
	}
	if c.KeyRange <= 0 {
		return fmt.Errorf("mapreduce: key range %d", c.KeyRange)
	}
	if c.ValueBytes <= 0 {
		return fmt.Errorf("mapreduce: value bytes %d", c.ValueBytes)
	}
	if len(c.Chunks) == 0 {
		return fmt.Errorf("mapreduce: no chunks")
	}
	if c.Assign != AssignStatic && c.Assign != AssignDynamic {
		return fmt.Errorf("mapreduce: unknown assign mode %d", c.Assign)
	}
	return nil
}
