package experiments

import (
	"fmt"

	"gvmr/internal/baseline"
	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/report"
	"gvmr/internal/sim"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// Micro reproduces the §3 micro-cost claims: a 64³ brick loads from disk
// in ≈20 ms, transfers to the GPU in <0.2 ms (<1% overhead), and a 512²
// image's worth of ray fragments reads back in <2 ms.
func Micro() (*report.Table, error) {
	t := report.New("§3 micro-costs (paper → measured)",
		"operation", "paper", "measured", "holds")
	env := sim.NewEnv()
	cl, err := cluster.New(env, cluster.AC(1))
	if err != nil {
		return nil, err
	}
	brickBytes := int64(64 * 64 * 64 * 4)
	fragBytes := int64(512*512) * composite.FragmentBytes
	var disk, h2d, d2h sim.Time
	env.Go("micro", func(p *sim.Proc) {
		start := p.Now()
		cl.Nodes[0].ReadDisk(p, brickBytes)
		disk = p.Now() - start

		start = p.Now()
		tex, err := cl.Device(0).UploadTexture3D(p, volume.Region{Ext: volume.Cube(64)})
		if err != nil {
			panic(err)
		}
		h2d = p.Now() - start
		tex.Free()

		start = p.Now()
		cl.Device(0).Download(p, fragBytes)
		d2h = p.Now() - start
	})
	if err := env.Run(); err != nil {
		return nil, err
	}
	t.Add("64³ brick from disk", "≈20 ms", report.Ms(disk)+" ms",
		fmt.Sprint(disk > 15*sim.Millisecond && disk < 25*sim.Millisecond))
	t.Add("64³ brick to GPU (PCIe)", "<0.2 ms", report.Ms(h2d)+" ms",
		fmt.Sprint(h2d < 200*sim.Microsecond))
	t.Add("512² ray fragments GPU→CPU", "<2 ms", report.Ms(d2h)+" ms",
		fmt.Sprint(d2h < 2*sim.Millisecond))
	t.Add("PCIe overhead vs 20 ms disk load", "<1%", report.F2(float64(h2d)/float64(disk)*100)+" %",
		fmt.Sprint(float64(h2d)/float64(disk) < 0.01))
	return t, nil
}

// BaselineCmp reproduces footnote 1: the CPU-cluster reference renderer
// (ParaView stand-in) vs the MapReduce GPU renderer. The paper reports
// ParaView at 346 MVPS on 512 processes and the GPU renderer at more than
// double that with 16 GPUs.
func BaselineCmp(sc Scale) (*report.Table, error) {
	t := report.New("Footnote 1 — CPU-cluster baseline vs multi-GPU MapReduce",
		"renderer", "resources", "volume", "runtime(s)", "MVPS")
	dims := volume.Cube(sc.BaselineEdge)

	src, err := dataset.New(dataset.Skull, dims)
	if err != nil {
		return nil, err
	}
	tf, err := transfer.Preset(dataset.Skull)
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	cpuRes, err := baseline.Render(env, sc.BaselineRanks, sc.BaselineRanksPerNode, core.Options{
		Source: src, TF: tf, Width: sc.ImageSize, Height: sc.ImageSize,
	})
	if err != nil {
		return nil, err
	}
	t.Add("CPU cluster (ParaView stand-in)",
		fmt.Sprintf("%d ranks", sc.BaselineRanks), dims.String(),
		report.Sec(cpuRes.Runtime), report.F0(cpuRes.VPSMillions))

	gpuRes, err := RenderConfig(dataset.Skull, dims, sc.BaselineGPUs, sc.ImageSize, nil)
	if err != nil {
		return nil, err
	}
	t.Add("MapReduce multi-GPU",
		fmt.Sprintf("%d GPUs", sc.BaselineGPUs), dims.String(),
		report.Sec(gpuRes.Runtime), report.F0(gpuRes.VPSMillions))

	ratio := gpuRes.VPSMillions / cpuRes.VPSMillions
	t.Add("same-volume speedup", "", "", "", report.F2(ratio)+"x")

	// The paper's footnote compares its best measured rate against
	// ParaView's published 346 MVPS; peak VPS comes from the largest
	// volume (Figure 4).
	peakDims := volume.Cube(sc.BaselineGPUEdge)
	peakRes, err := RenderConfig(dataset.Skull, peakDims, sc.BaselineGPUs, sc.ImageSize, nil)
	if err != nil {
		return nil, err
	}
	t.Add("MapReduce multi-GPU (peak volume)",
		fmt.Sprintf("%d GPUs", sc.BaselineGPUs), peakDims.String(),
		report.Sec(peakRes.Runtime), report.F0(peakRes.VPSMillions))
	t.Add("peak speedup (paper: >2x vs 346 MVPS)", "", "", "",
		report.F2(peakRes.VPSMillions/cpuRes.VPSMillions)+"x")
	return t, nil
}
