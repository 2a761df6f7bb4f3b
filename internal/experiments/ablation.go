package experiments

import (
	"fmt"
	"strings"

	"gvmr/internal/core"
	"gvmr/internal/gpu"
	"gvmr/internal/mapreduce"
	"gvmr/internal/report"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// Ablations runs the §6.1/§7 design-choice experiments: the compositing
// topology, the sampling technique, reduce placement, chunk scheduling,
// partitioning, shading, and empty-space skipping. Each row is one full
// frame render at the ablation scale.
func Ablations(sc Scale) (*report.Table, error) {
	t := report.New(fmt.Sprintf("§6.1/§7 ablations — %d³ skull, %d GPUs, %d² image",
		sc.AblationEdge, 8, sc.ImageSize),
		"variant", "runtime(s)", "MVPS", "notes")
	dims := volume.Cube(sc.AblationEdge)
	gpus := 8

	run := func(name, notes string, mutate func(*core.Options)) error {
		res, err := RenderConfig(dataset.Skull, dims, gpus, sc.ImageSize, mutate)
		if err != nil {
			return fmt.Errorf("ablation %q: %w", name, err)
		}
		if strings.HasPrefix(name, "dynamic") {
			// Scheduling rows report how many GPUs the queue kept busy.
			busy := 0
			for _, w := range res.Stats.Workers {
				busy += min(w.Chunks, 1)
			}
			notes += fmt.Sprintf("; %d/%d GPUs busy", busy, gpus)
		}
		t.Add(name, report.Sec(res.Runtime), report.F0(res.VPSMillions), notes)
		return nil
	}
	dynamic := func(o *core.Options) { o.Assign = mapreduce.AssignDynamic }

	cases := []struct {
		name   string
		notes  string
		mutate func(*core.Options)
	}{
		{"direct-send (paper)", "baseline", nil},
		{"binary-swap compositing", "§6.1 alternative topology",
			func(o *core.Options) { o.Compositor = core.BinarySwap }},
		{"slicing sampler", "§6.1: only the map phase changes",
			func(o *core.Options) { o.Sampler = core.Slicing }},
		{"reduce on GPU", "§3.1.2: paper found CPU faster",
			func(o *core.Options) { o.ReduceOn = mapreduce.OnGPU; o.SortOn = mapreduce.OnGPU }},
		{"dynamic chunk queue", "§6.1: paper omits it", dynamic},
		{"image-block partitioning", "§6: blocked distribution",
			func(o *core.Options) {
				o.Partitioner = mapreduce.Blocked{KeyRange: int32(sc.ImageSize * sc.ImageSize)}
			}},
		{"striped partitioning", "§6: striped distribution",
			func(o *core.Options) {
				o.Partitioner = mapreduce.Striped{Width: sc.ImageSize, StripeHeight: 8}
			}},
		{"checkerboard partitioning", "§6: checkerboard distribution",
			func(o *core.Options) {
				o.Partitioner = mapreduce.Checkerboard{Width: sc.ImageSize, Tile: 16}
			}},
		{"4 bricks per GPU", "paper: bricks within ~4x of GPUs",
			func(o *core.Options) { o.BricksPerGPU = 4 }},
		{"dynamic, 4 bricks per GPU", "§6.1: paper omits it",
			func(o *core.Options) { dynamic(o); o.BricksPerGPU = 4 }},
		{"gradient shading", "§2 shading; 6 extra fetches/sample",
			func(o *core.Options) { o.Shading = true }},
		{"no empty-space skipping", "DESIGN §8 macrocell DDA off; same image",
			func(o *core.Options) { o.NoEmptySkip = true }},
	}
	for _, c := range cases {
		if err := run(c.name, c.notes, c.mutate); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ZeroCopy estimates the §7 0-copy emission idea with the kernel cost
// model: the same ray-cast kernel stats with fragments emitted to
// host-mapped memory instead of VRAM. The paper's caveat is about the
// memory itself — "0-copy memory is orders of magnitude slower than GPU
// VRAM" — so the table shows both the isolated emission cost (where the
// slowdown is stark) and the whole-kernel effect (where sampling hides
// most of it, which is why §7 still calls it "a research topic" with
// "potential for significant overlap").
func ZeroCopy(sc Scale) *report.Table {
	t := report.New("§7 — 0-copy emission estimate (kernel cost model)",
		"emission target", "emission(ms)", "emission slowdown", "whole kernel(ms)", "kernel slowdown")
	spec := gpu.TeslaC1060()
	// A representative brick kernel: 512² threads, ~128 samples per
	// hitting ray, one emission per thread.
	stats := gpu.Stats{
		Threads: 512 * 512,
		Samples: 512 * 512 * 128 / 2,
		Emitted: 512 * 512,
	}
	emitOnly := gpu.Stats{Emitted: stats.Emitted}
	emitVRAM := gpu.KernelCost(&spec, emitOnly, false) - spec.LaunchOverhead
	emitZC := gpu.KernelCost(&spec, emitOnly, true) - spec.LaunchOverhead
	vram := gpu.KernelCost(&spec, stats, false)
	zc := gpu.KernelCost(&spec, stats, true)
	t.Add("VRAM (paper's design)", report.Ms(emitVRAM), "1.00x", report.Ms(vram), "1.00x")
	t.Add("0-copy host memory", report.Ms(emitZC),
		report.F2(float64(emitZC)/float64(emitVRAM))+"x",
		report.Ms(zc), report.F2(float64(zc)/float64(vram))+"x")
	return t
}
