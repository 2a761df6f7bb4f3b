package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/volume/dataset"
)

// DistBenchConfig records the distributed-cluster workload.
type DistBenchConfig struct {
	Scale      string `json:"scale"`
	Dataset    string `json:"dataset"`
	Edge       int    `json:"edge"`
	ImageSize  int    `json:"image_size"`
	Frames     int    `json:"frames"`
	JobGPUs    int    `json:"job_gpus"`    // grid planned for this many devices
	WorkerGPUs int    `json:"worker_gpus"` // simulated GPUs per worker node
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// DistBenchLeg is the orbit rendered through a coordinator over N
// in-process worker nodes. Mode names the topology: "classic" is the
// coordinator-local reduce with the compressed columnar wire, "raw" the
// same with compression disabled (the A/B control for the compression
// ratio), "reduce" the distributed reduce on the worker fleet.
type DistBenchLeg struct {
	Mode           string  `json:"mode"`
	Workers        int     `json:"workers"`
	VirtualSeconds float64 `json:"virtual_seconds"` // summed frame makespans
	MapSeconds     float64 `json:"map_seconds"`     // slowest-node map phase, summed
	WireSeconds    float64 `json:"wire_seconds"`
	ReduceSeconds  float64 `json:"reduce_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	Fragments      int64   `json:"fragments"`
	WireBytes      int64   `json:"wire_bytes"`
	// Reduce-mode legs split WireBytes into the worker-to-worker
	// exchange and the collect hop into the coordinator.
	ExchangeBytes int64 `json:"exchange_bytes,omitempty"`
	CollectBytes  int64 `json:"collect_bytes,omitempty"`
}

// DistBench is the machine-readable record cmd/benchsuite writes to
// BENCH_cluster.json: a skull orbit rendered directly in-process and
// through distributed clusters — classic (coordinator-local reduce) over
// 1/2/4 workers, an uncompressed-wire A/B control, and the distributed
// reduce over 2/4 workers — with bit-identity against the direct render,
// virtual scaling across worker counts, the wire compression ratio and
// the coordinator's overhead on top of a single worker.
type DistBench struct {
	Config DistBenchConfig `json:"config"`
	// Direct is the single-process baseline (core.RenderOn, no HTTP).
	DirectVirtualSeconds float64        `json:"direct_virtual_seconds"`
	DirectWallSeconds    float64        `json:"direct_wall_seconds"`
	Legs                 []DistBenchLeg `json:"legs"`
	// BitIdentical: every leg's every frame matched the direct digest.
	BitIdentical bool `json:"bit_identical"`
	// SpeedupVirtual1to2/2to4 are map-phase virtual speedups from doubling
	// the cluster (the Hassan-style distributed scaling claim), measured
	// on the classic legs.
	SpeedupVirtual1to2 float64 `json:"speedup_virtual_1to2"`
	SpeedupVirtual2to4 float64 `json:"speedup_virtual_2to4"`
	// SpeedupVirtual1to4 is the end-to-end virtual speedup from growing a
	// 1-worker cluster to 4 workers in its best topology (classic at 1,
	// distributed reduce at 4): the whole-frame scaling claim, with wire
	// and reduce charged, not just the map phase.
	SpeedupVirtual1to4 float64 `json:"speedup_virtual_1to4"`
	// WireCompressionRatio is raw wire bytes over columnar-compressed
	// wire bytes for the 4-worker classic orbit — how much the gvmr-cf2
	// encoding shrinks the fragment traffic.
	WireCompressionRatio float64 `json:"wire_compression_ratio"`
	// CoordinatorOverheadWall is dist(1 worker) wall over direct wall: the
	// price of crossing the process boundary (HTTP, encode/decode, digest
	// verification) before any distribution win.
	CoordinatorOverheadWall float64 `json:"coordinator_overhead_wall"`
	// CoordinatorOverheadVirtual is (wire+reduce)/total for the 1-worker
	// leg: the modeled share of the makespan the coordinator adds.
	CoordinatorOverheadVirtual float64 `json:"coordinator_overhead_virtual"`
}

// distBenchWorkers spins n in-process gvmrd-style workers, each serving
// map batches and the reduce-exchange endpoints.
func distBenchWorkers(n, gpus int) ([]string, func(), error) {
	addrs := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		wk, err := dist.NewWorker(dist.WorkerConfig{Spec: cluster.AC(gpus)})
		if err != nil {
			return nil, nil, err
		}
		mux := http.NewServeMux()
		mux.Handle(dist.MapPath, wk)
		mux.HandleFunc(dist.ReducePath, wk.HandleReducePush)
		mux.HandleFunc(dist.CollectPath, wk.HandleCollect)
		servers[i] = httptest.NewServer(mux)
		addrs[i] = servers[i].URL
	}
	return addrs, func() {
		for _, s := range servers {
			s.Close()
		}
	}, nil
}

// RunDistBench measures the distributed render cluster: `frames` orbit
// views of the skull dataset, rendered (1) directly in-process on the
// job's virtual cluster and (2) through coordinators over 1, 2 and 4
// single-GPU worker nodes. Every distributed frame must digest equal to
// its direct render. Worker processes are in-process HTTP servers, so
// wall times include real serialisation and transport but no physical
// network.
func RunDistBench(sc Scale, frames int) (*DistBench, error) {
	if frames < 1 {
		frames = 4
	}
	// The post-PR1/PR4 kernels are fast enough that the 250ms per-job
	// fixed overhead (charged once per node, in parallel) hides the map
	// phase at small scale; the cluster bench needs map-dominant frames
	// for the scaling signal to mean anything.
	edge, size := 64, 256
	if sc.Name == "paper" {
		edge, size = 128, 512
	}
	const jobGPUs = 4
	const workerGPUs = 1

	b := &DistBench{
		Config: DistBenchConfig{
			Scale: sc.Name, Dataset: dataset.Skull,
			Edge: edge, ImageSize: size, Frames: frames,
			JobGPUs: jobGPUs, WorkerGPUs: workerGPUs,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		},
		BitIdentical: true,
	}

	src, err := dataset.New(dataset.Skull, dataset.PaperDims(dataset.Skull, edge))
	if err != nil {
		return nil, err
	}
	jobs := make([]dist.JobSpec, frames)
	for f := 0; f < frames; f++ {
		cam, err := core.OrbitCamera(src, size, size, 360*float64(f)/float64(frames))
		if err != nil {
			return nil, err
		}
		jobs[f] = dist.JobSpec{
			Dataset: dataset.Skull, Edge: edge,
			Width: size, Height: size,
			GPUs: jobGPUs, Shading: true,
			StepVoxels: 1, TerminationAlpha: 0.98,
			Camera: dist.CameraFrom(cam),
		}
	}

	// Direct baseline; also pre-warms the staging cache so every leg
	// stages out of the same materialised volume, like the serving path.
	digests := make([]string, frames)
	wallStart := time.Now()
	for f, job := range jobs {
		opt, err := job.Options()
		if err != nil {
			return nil, err
		}
		res, dur, err := core.RenderOn(job.PlanSpec(), opt, 0)
		if err != nil {
			return nil, err
		}
		digests[f] = res.Image.Digest()
		b.DirectVirtualSeconds += dur.Seconds()
	}
	b.DirectWallSeconds = time.Since(wallStart).Seconds()

	type legSpec struct {
		mode    string
		workers int
	}
	specs := []legSpec{
		{"classic", 1}, {"classic", 2}, {"classic", 4},
		// The A/B control: the same 4-worker orbit with the columnar wire
		// encoding off. Virtual times barely move (the wire model charges
		// logical bytes); the wire_bytes column is the point.
		{"raw", 4},
		// Reduce on the worker fleet needs at least two peers to exchange.
		{"reduce", 2}, {"reduce", 4},
	}
	for _, spec := range specs {
		addrs, shutdown, err := distBenchWorkers(spec.workers, workerGPUs)
		if err != nil {
			return nil, err
		}
		coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
			Nodes:      addrs,
			NoCompress: spec.mode == "raw",
			DistReduce: spec.mode == "reduce",
		})
		if err != nil {
			shutdown()
			return nil, err
		}
		leg := DistBenchLeg{Mode: spec.mode, Workers: spec.workers}
		legStart := time.Now()
		for f, job := range jobs {
			res, bd, err := coord.RenderDetailed(context.Background(), job)
			if err != nil {
				shutdown()
				return nil, fmt.Errorf("distbench: %s/%d workers frame %d: %w", spec.mode, spec.workers, f, err)
			}
			if res.Image.Digest() != digests[f] {
				b.BitIdentical = false
			}
			leg.VirtualSeconds += res.Runtime.Seconds()
			leg.MapSeconds += bd.Map.Seconds()
			leg.WireSeconds += bd.Wire.Seconds()
			leg.ReduceSeconds += bd.Reduce.Seconds()
			leg.Fragments += bd.Fragments
			leg.WireBytes += bd.WireBytes
			leg.ExchangeBytes += bd.ExchangeBytes
			leg.CollectBytes += bd.CollectBytes
		}
		leg.WallSeconds = time.Since(legStart).Seconds()
		shutdown()
		if spec.mode == "reduce" {
			// An in-process fleet has no excuse to abandon an exchange; a
			// fallback here would mean the leg silently measured the
			// classic path instead.
			if st := coord.Stats(); st.ReduceFallbacks > 0 || st.ReduceJobs != int64(frames) {
				return nil, fmt.Errorf("distbench: reduce/%d workers fell back (%d exchanges, %d fallbacks)",
					spec.workers, st.ReduceJobs, st.ReduceFallbacks)
			}
		}
		b.Legs = append(b.Legs, leg)
	}

	one, two, four := *b.Leg("classic", 1), *b.Leg("classic", 2), *b.Leg("classic", 4)
	if two.MapSeconds > 0 {
		b.SpeedupVirtual1to2 = one.MapSeconds / two.MapSeconds
	}
	if four.MapSeconds > 0 {
		b.SpeedupVirtual2to4 = two.MapSeconds / four.MapSeconds
	}
	if r4 := b.Leg("reduce", 4); r4 != nil && r4.VirtualSeconds > 0 {
		b.SpeedupVirtual1to4 = one.VirtualSeconds / r4.VirtualSeconds
	}
	if raw := b.Leg("raw", 4); raw != nil && four.WireBytes > 0 {
		b.WireCompressionRatio = float64(raw.WireBytes) / float64(four.WireBytes)
	}
	if b.DirectWallSeconds > 0 {
		b.CoordinatorOverheadWall = one.WallSeconds / b.DirectWallSeconds
	}
	if one.VirtualSeconds > 0 {
		b.CoordinatorOverheadVirtual = (one.WireSeconds + one.ReduceSeconds) / one.VirtualSeconds
	}
	return b, nil
}

// Leg returns the leg with the given mode and worker count, nil if the
// record has none.
func (b *DistBench) Leg(mode string, workers int) *DistBenchLeg {
	for i := range b.Legs {
		if b.Legs[i].Mode == mode && b.Legs[i].Workers == workers {
			return &b.Legs[i]
		}
	}
	return nil
}

// WriteJSON writes the record.
func (b *DistBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
