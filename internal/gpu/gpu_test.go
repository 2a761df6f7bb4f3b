package gpu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gvmr/internal/sim"
	"gvmr/internal/volume"
)

func testDevice(env *sim.Env) *Device {
	link := PCIe{
		Link:      sim.NewResource(env, "pcie", 1),
		Bandwidth: 6.2e9,
		Latency:   15 * sim.Microsecond,
	}
	return NewDevice(env, 0, 0, TeslaC1060(), link)
}

func TestAllocFreeAccounting(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env)
	b1, err := d.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.Alloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.AllocatedBytes() != 3<<20 {
		t.Errorf("allocated = %d", d.AllocatedBytes())
	}
	d.Free(b1)
	if d.AllocatedBytes() != 2<<20 {
		t.Errorf("after free allocated = %d", d.AllocatedBytes())
	}
	d.Free(b2)
	if d.AllocatedBytes() != 0 {
		t.Errorf("final allocated = %d", d.AllocatedBytes())
	}
}

func TestAllocOOM(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env)
	if _, err := d.Alloc(d.Spec.VRAMBytes + 1); err == nil {
		t.Error("over-VRAM allocation accepted")
	}
	b, err := d.Alloc(d.Spec.VRAMBytes)
	if err != nil {
		t.Fatalf("exact-capacity alloc failed: %v", err)
	}
	if _, err := d.Alloc(1); err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("expected OOM, got %v", err)
	}
	d.Free(b)
	if _, err := d.Alloc(-1); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env)
	b, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	d.Free(b)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	d.Free(b)
}

func TestUploadTexture3DCost(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env)
	// A 64³ brick (the paper's §3 micro-cost unit): < 0.2 ms on PCIe.
	env.Go("host", func(p *sim.Proc) {
		tex, err := d.UploadTexture3D(p, volume.Region{Ext: volume.Cube(64)})
		if err != nil {
			t.Error(err)
			return
		}
		elapsed := p.Now()
		if elapsed >= 200*sim.Microsecond {
			t.Errorf("64³ upload took %v, paper says < 0.2ms", elapsed)
		}
		if elapsed <= 100*sim.Microsecond {
			t.Errorf("64³ upload took %v, implausibly fast for 1 MiB over 5.5 GB/s", elapsed)
		}
		tex.Free()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if d.AllocatedBytes() != 0 {
		t.Error("texture free leaked VRAM")
	}
	if d.Stats().BytesH2D != 64*64*64*4 {
		t.Errorf("BytesH2D = %d", d.Stats().BytesH2D)
	}
}

func TestPCIeSharedContention(t *testing.T) {
	// Two GPUs on one link: concurrent uploads serialise.
	env := sim.NewEnv()
	link := PCIe{Link: sim.NewResource(env, "pcie", 1), Bandwidth: 1e9, Latency: 0}
	d1 := NewDevice(env, 0, 0, TeslaC1060(), link)
	d2 := NewDevice(env, 1, 0, TeslaC1060(), link)
	whole := volume.Region{Ext: volume.Dims{X: 1 << 18, Y: 1, Z: 1}} // 1 MiB
	var t1, t2 sim.Time
	env.Go("h1", func(p *sim.Proc) {
		if _, err := d1.UploadTexture3D(p, whole); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
	})
	env.Go("h2", func(p *sim.Proc) {
		if _, err := d2.UploadTexture3D(p, whole); err != nil {
			t.Error(err)
		}
		t2 = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	one := sim.BytesTime(1<<20, 1e9)
	if t1 != one {
		t.Errorf("first upload done at %v, want %v", t1, one)
	}
	if t2 != 2*one {
		t.Errorf("second upload done at %v, want %v (serialised)", t2, 2*one)
	}
}

// countKernel is a trivial kernel that counts its own threads and emits a
// configurable number of samples per thread.
type countKernel struct {
	grid, block      Dim2
	samplesPerThread int64
	mark             [][]int32 // per-block execution marker
}

func (k *countKernel) Grid() Dim2 { return k.grid }
func (k *countKernel) RunBlock(bx, by int) Stats {
	if k.mark != nil {
		k.mark[by][bx]++
	}
	threads := int64(k.block.Count())
	return Stats{
		Threads: threads,
		Samples: threads * k.samplesPerThread,
		Emitted: threads,
	}
}

// TestExecuteRunsEveryBlockOnce runs one kernel at every pool width, the
// inline width 1 and the pooled widths included, so the pooled path is
// covered on a one-core host too: each block runs once and the device
// reports the same Stats at every width.
func TestExecuteRunsEveryBlockOnce(t *testing.T) {
	var first DeviceStats
	for _, workers := range []int{0, 1, 2, 3} {
		env := sim.NewEnv()
		d := testDevice(env)
		d.Workers = workers
		mark := make([][]int32, 7)
		for i := range mark {
			mark[i] = make([]int32, 5)
		}
		k := &countKernel{grid: Dim2{5, 7}, block: Dim2{16, 16}, samplesPerThread: 3, mark: mark}
		env.Go("host", func(p *sim.Proc) {
			stats := RunBlocks(k, d.Workers)
			d.Execute(p, stats)
			if stats.Threads != int64(5*7*256) {
				t.Errorf("workers %d: threads = %d", workers, stats.Threads)
			}
			if stats.Samples != int64(5*7*256*3) {
				t.Errorf("workers %d: samples = %d", workers, stats.Samples)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		for by := range mark {
			for bx := range mark[by] {
				if mark[by][bx] != 1 {
					t.Fatalf("workers %d: block (%d,%d) ran %d times", workers, bx, by, mark[by][bx])
				}
			}
		}
		if d.Stats().Launches != 1 {
			t.Errorf("workers %d: launches = %d", workers, d.Stats().Launches)
		}
		if workers == 0 {
			first = d.Stats()
		} else if d.Stats() != first {
			t.Errorf("workers %d: stats %+v, want %+v (workers 0)", workers, d.Stats(), first)
		}
	}
}

func TestKernelCostModel(t *testing.T) {
	spec := TeslaC1060()
	// Sample-bound kernel: one second's worth of samples dominates.
	s := Stats{Threads: 1000, Samples: int64(spec.SampleRate), Emitted: 0}
	got := KernelCost(&spec, s, false)
	want := spec.LaunchOverhead + sim.Second
	if got != want {
		t.Errorf("sample-bound cost = %v, want %v", got, want)
	}
	// Thread-bound kernel (placeholder-only launch).
	s = Stats{Threads: 2_500_000_000, Samples: 0}
	got = KernelCost(&spec, s, false)
	if got != spec.LaunchOverhead+sim.Second {
		t.Errorf("thread-bound cost = %v", got)
	}
	// Zero-copy emission is much slower.
	s = Stats{Emitted: 1_000_000}
	normal := KernelCost(&spec, s, false)
	zc := KernelCost(&spec, s, true)
	if zc <= normal {
		t.Errorf("zero-copy %v should cost more than VRAM emission %v", zc, normal)
	}
}

func TestStreamDownloadOp(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env)
	env.Go("host", func(p *sim.Proc) {
		got := d.Download(p, 1<<20)
		want := d.PCIe.TransferTime(1 << 20)
		if got != want || p.Now() != want {
			t.Errorf("download took %v, completed at %v, want %v", got, p.Now(), want)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().BytesD2H != 1<<20 || d.Stats().D2HTime != d.PCIe.TransferTime(1<<20) {
		t.Errorf("stats = %+v", d.Stats())
	}
}

// executeConcurrently runs k once on each device from its own process and
// returns when the last one finished.
func executeConcurrently(t *testing.T, env *sim.Env, k Kernel, devs ...*Device) sim.Time {
	t.Helper()
	var end sim.Time
	for i, d := range devs {
		env.Go(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			d.Execute(p, RunBlocks(k, d.Workers))
			end = max(end, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return end
}

func TestSameDeviceStreamsSerialiseOnEngine(t *testing.T) {
	// Two processes launching on one device: kernels contend for the
	// single execution engine, so they serialise (unlike across devices).
	env := sim.NewEnv()
	d := testDevice(env)
	k := &countKernel{grid: Dim2{1, 1}, block: Dim2{16, 16}, samplesPerThread: 100000}
	one := KernelCost(&d.Spec, Stats{Threads: 256, Samples: 256 * 100000, Emitted: 256}, false)
	if end := executeConcurrently(t, env, k, d, d); end < 2*one {
		t.Errorf("same-device kernels overlapped: %v < %v", end, 2*one)
	}
}

func TestStreamsOverlapAcrossDevices(t *testing.T) {
	env := sim.NewEnv()
	link := PCIe{Link: sim.NewResource(env, "pcie", 1), Bandwidth: 6.2e9, Latency: 0}
	d1 := NewDevice(env, 0, 0, TeslaC1060(), link)
	d2 := NewDevice(env, 1, 0, TeslaC1060(), link)
	k := &countKernel{grid: Dim2{1, 1}, block: Dim2{16, 16}, samplesPerThread: 100000}
	// Each kernel: 256 threads * 1e5 samples at SampleRate. If they
	// overlapped, total ≈ one kernel, not two.
	one := KernelCost(&d1.Spec, Stats{Threads: 256, Samples: 256 * 100000, Emitted: 256}, false)
	if end := executeConcurrently(t, env, k, d1, d2); end > one+one/10 {
		t.Errorf("two devices took %v, want ≈%v (parallel)", end, one)
	}
}

func TestOccupyContendsWithKernels(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env)
	k := &countKernel{grid: Dim2{1, 1}, block: Dim2{16, 16}, samplesPerThread: 100000}
	kcost := KernelCost(&d.Spec, Stats{Threads: 256, Samples: 256 * 100000, Emitted: 256}, false)
	var done sim.Time
	env.Go("kernel", func(p *sim.Proc) {
		d.Execute(p, RunBlocks(k, d.Workers))
	})
	env.Go("occupier", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // arrive while the kernel holds the engine
		d.Occupy(p, 10*sim.Millisecond)
		done = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done < kcost+10*sim.Millisecond {
		t.Errorf("Occupy finished at %v; should queue behind kernel (%v)", done, kcost)
	}
}

// Property: kernel cost is monotone in every stats dimension.
func TestKernelCostMonotoneProperty(t *testing.T) {
	spec := TeslaC1060()
	r := rand.New(rand.NewSource(71))
	f := func() bool {
		s := Stats{
			Threads: r.Int63n(1 << 20),
			Samples: r.Int63n(1 << 24),
			Emitted: r.Int63n(1 << 20),
		}
		base := KernelCost(&spec, s, false)
		more := s
		more.Samples += 1 << 20
		if KernelCost(&spec, more, false) < base {
			return false
		}
		more = s
		more.Emitted += 1 << 16
		if KernelCost(&spec, more, false) < base {
			return false
		}
		more = s
		more.Threads += 1 << 20
		return KernelCost(&spec, more, false) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
