package gpu

import (
	"fmt"
	"runtime"

	"gvmr/internal/schedule"
	"gvmr/internal/sim"
	"gvmr/internal/volume"
)

// PCIe describes the host↔device link a device hangs off. All GPUs of one
// node share a single link resource, which is how the four logical GPUs of
// a Tesla S1070 contend on the paper's cluster.
type PCIe struct {
	Link      *sim.Resource
	Bandwidth float64 // bytes/s
	Latency   sim.Time
}

// TransferTime returns latency + serialisation for n bytes.
func (p PCIe) TransferTime(n int64) sim.Time {
	return p.Latency + sim.BytesTime(n, p.Bandwidth)
}

// DeviceStats aggregates a device's lifetime activity, broken down the way
// the paper's Figure 3 attributes time.
type DeviceStats struct {
	KernelTime sim.Time
	H2DTime    sim.Time
	D2HTime    sim.Time
	Launches   int64
	BytesH2D   int64
	BytesD2H   int64
	Work       Stats
}

// Device is one simulated GPU.
type Device struct {
	Env    *sim.Env
	ID     int
	NodeID int
	Spec   Spec
	PCIe   PCIe

	engine    *sim.Resource // kernel execution engine (one kernel at a time)
	allocated int64
	stats     DeviceStats

	// Workers caps the host cores RunBlocks uses for this device's
	// kernels; zero means GOMAXPROCS.
	Workers int
}

// NewDevice creates a device attached to the given PCIe link.
func NewDevice(env *sim.Env, id, nodeID int, spec Spec, pcie PCIe) *Device {
	return &Device{
		Env:    env,
		ID:     id,
		NodeID: nodeID,
		Spec:   spec,
		PCIe:   pcie,
		engine: sim.NewResource(env, fmt.Sprintf("gpu%d.engine", id), 1),
	}
}

// Stats returns a copy of the device's accumulated statistics.
func (d *Device) Stats() DeviceStats { return d.stats }

// AllocatedBytes returns the current VRAM allocation.
func (d *Device) AllocatedBytes() int64 { return d.allocated }

// FreeBytes returns the remaining VRAM.
func (d *Device) FreeBytes() int64 { return d.Spec.VRAMBytes - d.allocated }

// Buffer is a VRAM allocation handle.
type Buffer struct {
	dev   *Device
	bytes int64
	freed bool
}

// Bytes returns the allocation size.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Alloc reserves VRAM; it fails when the device is out of memory — the
// paper's restriction that any single map task must fit in GPU memory
// surfaces here.
func (d *Device) Alloc(bytes int64) (*Buffer, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("gpu%d: negative allocation %d", d.ID, bytes)
	}
	if d.allocated+bytes > d.Spec.VRAMBytes {
		return nil, fmt.Errorf("gpu%d: out of memory: want %d, free %d of %d",
			d.ID, bytes, d.FreeBytes(), d.Spec.VRAMBytes)
	}
	d.allocated += bytes
	return &Buffer{dev: d, bytes: bytes}, nil
}

// Free releases a buffer; freeing twice panics (a use-after-free would be a
// renderer bug worth crashing on).
func (d *Device) Free(b *Buffer) {
	if b.dev != d {
		panic(fmt.Sprintf("gpu%d: freeing buffer of gpu%d", d.ID, b.dev.ID))
	}
	if b.freed {
		panic(fmt.Sprintf("gpu%d: double free", d.ID))
	}
	b.freed = true
	d.allocated -= b.bytes
}

// Texture3D is a brick's voxel data resident in VRAM, sampled through the
// (simulated) texture units.
type Texture3D struct {
	Buf *Buffer
}

// Free releases the texture's VRAM.
func (t *Texture3D) Free() { t.Buf.dev.Free(t.Buf) }

// UploadTexture3D allocates and synchronously copies the part box of a
// brick's ghost region into a 3D texture, charging the shared PCIe link
// for box alone: the renderer passes the box its rays can fetch from
// (render.ResidentBox), the whole ghost region when it skips nothing. It
// is synchronous because CUDA 3D-texture uploads were synchronous at the
// time — the paper calls this out explicitly (§3.1.2, Chunk).
func (d *Device) UploadTexture3D(p *sim.Proc, box volume.Region) (*Texture3D, error) {
	bytes := box.Ext.Bytes()
	buf, err := d.Alloc(bytes)
	if err != nil {
		return nil, err
	}
	t := d.PCIe.TransferTime(bytes)
	d.PCIe.Link.Use(p, t)
	d.stats.H2DTime += t
	d.stats.BytesH2D += bytes
	return &Texture3D{Buf: buf}, nil
}

// Download charges a device-to-host copy of n bytes on the shared PCIe
// link (the fragment read-back path) and returns the modeled duration.
func (d *Device) Download(p *sim.Proc, n int64) sim.Time {
	t := d.PCIe.TransferTime(n)
	d.PCIe.Link.Use(p, t)
	d.stats.D2HTime += t
	d.stats.BytesD2H += n
	return t
}

// Execute charges a kernel's recorded work from the calling process: its
// modeled cost occupies the device's execution engine, so kernels from
// concurrent processes on one device serialise while kernels on different
// devices overlap. The work itself ran on host cores beforehand (RunBlocks).
func (d *Device) Execute(p *sim.Proc, stats Stats) {
	cost := KernelCost(&d.Spec, stats, false)
	d.engine.Use(p, cost)
	d.stats.KernelTime += cost
	d.stats.Launches++
	d.stats.Work.Add(stats)
}

// Occupy holds the execution engine for dur: modeled non-kernel device
// work (e.g. a GPU-side sort whose cost the caller computes) that must
// still contend with kernels for the device.
func (d *Device) Occupy(p *sim.Proc, dur sim.Time) {
	d.engine.Use(p, dur)
	d.stats.KernelTime += dur
}

// RunBlocks executes every block of the kernel across at most workers
// host cores (≤ 0 means GOMAXPROCS) and sums the per-block stats
// deterministically. It runs on the host alone: no virtual time passes.
func RunBlocks(k Kernel, workers int) Stats {
	grid := k.Grid()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perBlock, _ := schedule.Map(workers, grid.Count(), func(i int) (Stats, error) { // no job fails
		return k.RunBlock(i%grid.X, i/grid.X), nil
	})
	var total Stats
	for i := range perBlock {
		total.Add(perBlock[i])
	}
	return total
}
