// Package gpu simulates a CUDA-class GPU device on top of the sim kernel:
// VRAM accounting, 3D textures, PCIe copies, and kernel launches. A
// kernel is real Go code that RunBlocks runs over thread blocks on host
// cores; its launch charges the modeled execution time of that work, from
// a calibrated cost model, to the device's single execution engine. Overlap of staging,
// kernels and sends comes from the caller's concurrent sim processes
// (the mapreduce engine's loader and sender processes), not from device
// streams. This is the substitution for the paper's Tesla C1060 GPUs —
// see DESIGN.md §2.
package gpu

import "gvmr/internal/sim"

// Spec is the performance model of a device. The defaults in TeslaC1060
// are calibrated against the micro-costs the paper reports (§3) and the
// §6.3 bottleneck analysis; see DESIGN.md §6.
type Spec struct {
	Name string
	// VRAMBytes is the device memory capacity.
	VRAMBytes int64
	// SampleRate is the sustained trilinear 3D-texture sample rate
	// (samples/s) through the texture fetch+filter units, including the
	// transfer-function lookup and blend of the ray-casting inner loop.
	SampleRate float64
	// ThreadRate is the raw thread issue rate (threads/s): a floor cost
	// for kernels whose threads do almost no work (e.g. placeholder
	// emission outside the brick).
	ThreadRate float64
	// EmitRate is the rate at which threads can write key-value pairs to
	// global memory (pairs/s).
	EmitRate float64
	// CellRate is the macrocell traversal rate (cells/s): one step of the
	// empty-space-skipping DDA — a coarse-grid occupancy fetch plus the
	// exit-plane arithmetic. Far cheaper than a trilinear sample (one
	// aligned read, no filtering, no TF lookup) but not free; the cost
	// model charges it so skipping's win is net of its own overhead.
	// Zero disables the charge (pre-skipping specs stay comparable).
	CellRate float64
	// LaunchOverhead is the fixed driver cost per kernel launch.
	LaunchOverhead sim.Time
	// ZeroCopyPenalty divides EmitRate when a kernel emits directly to
	// host-mapped (0-copy) memory instead of VRAM (§7 future work).
	ZeroCopyPenalty float64
}

// TeslaC1060 returns the calibrated model of the paper's per-GPU hardware
// (one logical GPU of the Tesla S1070 units on the NCSA AC cluster).
func TeslaC1060() Spec {
	return Spec{
		Name:            "Tesla C1060 (simulated)",
		VRAMBytes:       4 << 30,
		SampleRate:      45e6,
		ThreadRate:      2.5e9,
		EmitRate:        450e6,
		CellRate:        1e9,
		LaunchOverhead:  10 * sim.Microsecond,
		ZeroCopyPenalty: 25,
	}
}

// Dim2 is a 2D extent (kernel grid or block size).
type Dim2 struct {
	X, Y int
}

// Count returns X*Y.
func (d Dim2) Count() int { return d.X * d.Y }

// Stats aggregates the observable work of a kernel execution; the cost
// model converts it to virtual time.
type Stats struct {
	Threads int64 // threads executed
	Samples int64 // trilinear texture fetches issued
	// SamplesSkipped counts fetches the dense march issues that the
	// macrocell grid made unnecessary — the sample invisible or its cell
	// homogeneous: the dense path issues Samples + SamplesSkipped.
	// Reported, not charged.
	SamplesSkipped int64
	// Cells counts macrocell visits — an occupancy fetch + exit computation
	// each, not cells crossed — charged at Spec.CellRate.
	Cells   int64
	Emitted int64 // records written: fragments, plus one charged per empty thread
	RaysHit int64 // rays that intersected the brick
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Threads += other.Threads
	s.Samples += other.Samples
	s.SamplesSkipped += other.SamplesSkipped
	s.Cells += other.Cells
	s.Emitted += other.Emitted
	s.RaysHit += other.RaysHit
}

// Sub removes other from s. Device counters are lifetime totals; callers
// that need per-job figures snapshot at job start and Sub the snapshot
// out, so a job's stats don't depend on what ran before it on the device.
func (s *Stats) Sub(other Stats) {
	s.Threads -= other.Threads
	s.Samples -= other.Samples
	s.SamplesSkipped -= other.SamplesSkipped
	s.Cells -= other.Cells
	s.Emitted -= other.Emitted
	s.RaysHit -= other.RaysHit
}

// Kernel is a CUDA-kernel equivalent: real computation decomposed into a
// 2D grid of 2D thread blocks. RunBlock implementations are called
// concurrently from multiple host goroutines and must write only to
// disjoint output locations (exactly the discipline a CUDA kernel needs).
type Kernel interface {
	// Grid returns the block grid extent.
	Grid() Dim2
	// RunBlock executes block (bx,by) and returns its work stats.
	RunBlock(bx, by int) Stats
}

// KernelCost converts kernel stats to modeled execution time under spec.
// Texture sampling and raw thread issue overlap on real hardware, so the
// cost takes their max; emission bandwidth is additive (it contends with
// sampling for memory). Macrocell traversal is additive with sampling —
// the skipping DDA runs in the same inner loop as the fetches, so its
// steps serialise with them rather than hiding behind them.
func KernelCost(spec *Spec, s Stats, zeroCopy bool) sim.Time {
	sample := sim.WorkTime(float64(s.Samples), spec.SampleRate)
	if s.Cells > 0 && spec.CellRate > 0 {
		sample += sim.WorkTime(float64(s.Cells), spec.CellRate)
	}
	issue := sim.WorkTime(float64(s.Threads), spec.ThreadRate)
	work := max(sample, issue)
	emitRate := spec.EmitRate
	if zeroCopy && spec.ZeroCopyPenalty > 0 {
		emitRate /= spec.ZeroCopyPenalty
	}
	emit := sim.WorkTime(float64(s.Emitted), emitRate)
	return spec.LaunchOverhead + work + emit
}
