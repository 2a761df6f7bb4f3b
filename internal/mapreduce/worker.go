package mapreduce

import (
	"gvmr/internal/cluster"
	"gvmr/internal/gpu"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
	"gvmr/internal/volume"
)

// Ctx is the simulation process a callback runs in.
type Ctx = *sim.Proc

// Worker is one mapper worker: a GPU plus its host-side driver process.
// Mappers perform all device work through the Worker so the engine can
// attribute time to the paper's stages (Map vs Partition+I/O).
type Worker struct {
	Index int
	Dev   *gpu.Device
	Node  *cluster.Node

	tr   *trace.Log
	lane string

	// stage accumulators (virtual time)
	mapTime    sim.Time
	partIOTime sim.Time
	commBusy   sim.Time // transfer busy time across this worker's senders
	kernelTime sim.Time
	chunksDone int
	emitted    int64

	// work0 snapshots the device's lifetime kernel-work counters at job
	// start, so WorkerStats.Kernel reports this job's work only — a job's
	// statistics must not depend on what ran on the device before it
	// (multi-frame sessions reuse devices; the parallel frame scheduler
	// gives every frame a fresh one; both must report identically).
	work0 gpu.Stats
}

// span records an activity interval on the worker's trace lane (no-op
// without tracing).
func (w *Worker) span(cat, name string, start, end sim.Time) {
	w.tr.Add(trace.Span{Name: name, Cat: cat, Lane: w.lane, Start: start, End: end})
}

// UploadTexture stages the part box of a brick's ghost region into VRAM,
// synchronously (the paper was forced into synchronous 3D-texture
// copies), attributed to Partition+I/O as a host↔device transfer.
func (w *Worker) UploadTexture(p Ctx, box volume.Region) (*gpu.Texture3D, error) {
	start := p.Now()
	tex, err := w.Dev.UploadTexture3D(p, box)
	w.partIOTime += p.Now() - start
	w.span("partition+io", "h2d:texture", start, p.Now())
	return tex, err
}

// RunKernel charges the work of kernel name, already run on the host
// (gpu.RunBlocks), on the worker's device, attributed to Map.
func (w *Worker) RunKernel(p Ctx, name string, stats gpu.Stats) {
	start := p.Now()
	w.Dev.Execute(p, stats)
	elapsed := p.Now() - start
	w.mapTime += elapsed
	w.kernelTime += elapsed
	w.span("map", "kernel:"+name, start, p.Now())
}

// Download charges a device-to-host fragment read-back, attributed to
// Partition+I/O.
func (w *Worker) Download(p Ctx, bytes int64) {
	start := p.Now()
	w.Dev.Download(p, bytes)
	w.partIOTime += p.Now() - start
	w.span("partition+io", "d2h:fragments", start, p.Now())
}

// CPUWork charges host CPU work on the worker's node, attributed to Map
// (mappers that compute on the CPU).
func (w *Worker) CPUWork(p Ctx, work, ratePerCore float64) {
	start := p.Now()
	w.Node.CPUWork(p, work, ratePerCore)
	w.mapTime += p.Now() - start
	w.span("map", "cpu", start, p.Now())
}

// StageTimes is the per-stage decomposition the paper's Figure 3 plots.
type StageTimes struct {
	Map         sim.Time // ray-casting kernels (GPU compute)
	PartitionIO sim.Time // disk loads, PCIe transfers, partition CPU, unhidden network waits
	Sort        sim.Time // counting sort at the reducer
	Reduce      sim.Time // per-key fold (compositing)
}

// Total returns the stacked sum.
func (s StageTimes) Total() sim.Time { return s.Map + s.PartitionIO + s.Sort + s.Reduce }

// add accumulates o into s.
func (s *StageTimes) add(o StageTimes) {
	s.Map += o.Map
	s.PartitionIO += o.PartitionIO
	s.Sort += o.Sort
	s.Reduce += o.Reduce
}

// scale divides every component by n.
func (s StageTimes) scale(n int) StageTimes {
	if n <= 0 {
		return s
	}
	return StageTimes{
		Map:         s.Map / sim.Time(n),
		PartitionIO: s.PartitionIO / sim.Time(n),
		Sort:        s.Sort / sim.Time(n),
		Reduce:      s.Reduce / sim.Time(n),
	}
}

// WorkerStats reports one worker's activity.
type WorkerStats struct {
	Index    int
	Stage    StageTimes
	Chunks   int
	Emitted  int64 // key-value pairs sent to reducers
	CommBusy sim.Time
	Kernel   gpu.Stats
}

// ReducerStats reports one reducer's activity.
type ReducerStats struct {
	Index    int
	Received int64
	Sort     sim.Time
	Reduce   sim.Time
}

// JobStats is the full result record of a job run; every figure in the
// evaluation is derived from these numbers.
type JobStats struct {
	Makespan sim.Time
	Workers  []WorkerStats
	Reducers []ReducerStats
	// MeanStage is the mean per-worker stacked decomposition (reducer
	// stages folded onto their co-located worker) — the Figure 3 bars.
	MeanStage StageTimes
	// MapCompute/MapComm decompose the map phase for the §6.3 analysis:
	// kernel time vs all data movement (disk, PCIe, network busy).
	MapCompute sim.Time
	MapComm    sim.Time
	// Wire traffic.
	BytesOnWire   int64
	Messages      int64
	TotalEmitted  int64
	TotalReceived int64
	// Texture-sampling totals across workers. TotalSamplesSkipped counts
	// the fetches the dense march issues that the macrocell grid made
	// unnecessary — invisible or homogeneous (the dense path issues
	// TotalSamples + TotalSamplesSkipped); TotalCells is the macrocell
	// traversal work the cost model charged for knowing it.
	TotalSamples        int64
	TotalSamplesSkipped int64
	TotalCells          int64
}
