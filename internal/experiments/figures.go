package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"gvmr/internal/core"
	"gvmr/internal/report"
	"gvmr/internal/schedule"
	"gvmr/internal/sim"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// Fig2 renders the three evaluation datasets (the paper's Figure 2) and
// writes PNGs to outDir (skipped when outDir is empty). The returned table
// summarises the renders.
func Fig2(sc Scale, outDir string) (*report.Table, error) {
	t := report.New("Figure 2 — dataset renderings",
		"dataset", "resolution", "GPUs", "runtime(s)", "luminance", "file")
	type job struct {
		name string
		dims volume.Dims
	}
	jobs := []job{
		{dataset.Skull, volume.Cube(sc.Fig2Edge)},
		{dataset.Supernova, volume.Cube(sc.Fig2Edge)},
		{dataset.Plume, dataset.PaperDims(dataset.Plume, sc.Fig2Edge*4)},
	}
	// The three dataset renders are independent simulations: fan them out
	// across cores, then write PNGs and table rows in dataset order.
	workers := schedule.Workers(len(jobs))
	devWorkers := schedule.DeviceWorkers(workers)
	results, err := schedule.Map(workers, len(jobs), func(i int) (*core.Result, error) {
		// Figure renders use gradient shading — the paper's images are
		// shaded (§2: "interpolation and shading calculations").
		res, err := RenderConfigWorkers(jobs[i].name, jobs[i].dims, 4, sc.ImageSize, devWorkers,
			func(o *core.Options) { o.Shading = true })
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", jobs[i].name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		res := results[i]
		file := "-"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return nil, err
			}
			file = filepath.Join(outDir, fmt.Sprintf("fig2_%s.png", j.name))
			if err := res.Image.WritePNG(file); err != nil {
				return nil, err
			}
		}
		t.Add(j.name, j.dims.String(), "4", report.Sec(res.Runtime),
			fmt.Sprintf("%.4f", res.Image.MeanLuminance()), file)
	}
	return t, nil
}

// Fig3 formats the runtime breakdown (Map / Partition+I/O / Sort / Reduce)
// per volume size and GPU count: the paper's Figure 3 stacked bars.
func Fig3(rows []SweepRow) *report.Table {
	t := report.New("Figure 3 — runtime breakdown by stage (mean per GPU, ms)",
		"volume", "GPUs", "bricks", "map", "part+io", "sort", "reduce", "stacked", "makespan(s)")
	for _, r := range rows {
		t.Add(r.Dims.String(), fmt.Sprint(r.GPUs), fmt.Sprint(r.Bricks),
			report.Ms(r.Stage.Map), report.Ms(r.Stage.PartitionIO),
			report.Ms(r.Stage.Sort), report.Ms(r.Stage.Reduce),
			report.Ms(r.Stage.Total()), report.Sec(r.Runtime))
	}
	return t
}

// Fig4 formats the FPS and VPS series of the paper's Figure 4.
func Fig4(rows []SweepRow) (*report.Table, *report.Table) {
	fps := report.New("Figure 4 (left) — framerate (frames/second)",
		"volume", "GPUs", "FPS")
	vps := report.New("Figure 4 (right) — voxels per second (millions)",
		"volume", "GPUs", "MVPS")
	for _, r := range rows {
		fps.Add(r.Dims.String(), fmt.Sprint(r.GPUs), report.F2(r.FPS))
		vps.Add(r.Dims.String(), fmt.Sprint(r.GPUs), report.F0(r.VPSM))
	}
	return fps, vps
}

// Efficiency formats parallel efficiency (§4.2's third figure of merit):
// T(base)/(Y/base · T(Y)) per volume size, using each series' smallest
// rendered GPU count as base.
func Efficiency(rows []SweepRow) *report.Table {
	t := report.New("Parallel efficiency (§4.2), base = smallest GPU count per series",
		"volume", "GPUs", "efficiency")
	base := map[string]SweepRow{}
	for _, r := range rows {
		key := r.Dims.String()
		if b, ok := base[key]; !ok || r.GPUs < b.GPUs {
			base[key] = r
		}
	}
	for _, r := range rows {
		b := base[r.Dims.String()]
		eff := b.Runtime.Seconds() * float64(b.GPUs) / (float64(r.GPUs) * r.Runtime.Seconds())
		t.Add(r.Dims.String(), fmt.Sprint(r.GPUs), report.F2(eff))
	}
	return t
}

// Sec63Row is one line of the §6.3 bottleneck analysis.
type Sec63Row struct {
	GPUs       int
	MapCompute sim.Time
	MapComm    sim.Time
}

// Sec63 reproduces the §6.3 map-phase analysis: communication vs
// computation for the large volume at 8 and 16 GPUs (paper: 503 ms compute
// / 515 ms comm at 8 GPUs; 97 ms compute / >1 s comm at 16).
func Sec63(sc Scale) ([]Sec63Row, *report.Table, error) {
	t := report.New(fmt.Sprintf("§6.3 — map-phase bottleneck analysis, %d³ volume (mean per GPU)", sc.Sec63Edge),
		"GPUs", "computation(ms)", "communication(ms)", "comm/comp")
	var out []Sec63Row
	for _, gpus := range []int{8, 16} {
		res, err := RenderConfig(dataset.Skull, volume.Cube(sc.Sec63Edge), gpus, sc.ImageSize, nil)
		if err != nil {
			return nil, nil, err
		}
		row := Sec63Row{GPUs: gpus, MapCompute: res.Stats.MapCompute, MapComm: res.Stats.MapComm}
		out = append(out, row)
		ratio := float64(row.MapComm) / float64(row.MapCompute)
		t.Add(fmt.Sprint(gpus), report.Ms(row.MapCompute), report.Ms(row.MapComm), report.F2(ratio))
	}
	return out, t, nil
}

// ClaimsReport checks the paper's headline claims against the model:
// 1024³ in under a second on 8 GPUs (abstract); the best runtime for
// ≤512³ volumes sits at 8 GPUs (Fig. 3 discussion); and 32 GPUs beat 16
// for the largest volume.
func ClaimsReport(sc Scale, rows []SweepRow) *report.Table {
	t := report.New("Headline claims (paper → measured)", "claim", "paper", "measured", "holds")
	byEdge := map[int]map[int]SweepRow{}
	maxEdge := 0
	for _, r := range rows {
		if byEdge[r.Dims.X] == nil {
			byEdge[r.Dims.X] = map[int]SweepRow{}
		}
		byEdge[r.Dims.X][r.GPUs] = r
		if r.Dims.X > maxEdge {
			maxEdge = r.Dims.X
		}
	}
	// Claim 1: the largest volume renders in < 1 s with 8 GPUs (or, on
	// reduced scales without an 8-GPU column, the largest GPU count run).
	claimGPUs := 8
	if _, ok := byEdge[maxEdge][claimGPUs]; !ok {
		claimGPUs = 0
		for g := range byEdge[maxEdge] {
			if g > claimGPUs {
				claimGPUs = g
			}
		}
	}
	if r, ok := byEdge[maxEdge][claimGPUs]; ok {
		t.Add(fmt.Sprintf("%d³ on %d GPUs < 1 s", maxEdge, claimGPUs), "<1s",
			report.Sec(r.Runtime)+"s", fmt.Sprint(r.Runtime < sim.Second))
	}
	// Claim 2: the best configuration for the smaller volumes is 8 GPUs.
	for _, edge := range sc.Edges {
		if edge == maxEdge {
			continue
		}
		series, ok := byEdge[edge]
		if !ok {
			continue
		}
		bestGPUs, best := 0, sim.Time(1<<62)
		for g, r := range series {
			if r.Runtime < best {
				best, bestGPUs = r.Runtime, g
			}
		}
		t.Add(fmt.Sprintf("best GPU count for %d³", edge), "8",
			fmt.Sprint(bestGPUs), fmt.Sprint(bestGPUs == 8))
	}
	// Claim 3: for the largest volume, 32 GPUs beat 16.
	if r16, ok := byEdge[maxEdge][16]; ok {
		if r32, ok := byEdge[maxEdge][32]; ok {
			t.Add(fmt.Sprintf("%d³: 32 GPUs faster than 16", maxEdge), "yes",
				fmt.Sprintf("16→%s, 32→%s", report.Sec(r16.Runtime), report.Sec(r32.Runtime)),
				fmt.Sprint(r32.Runtime < r16.Runtime))
		}
	}
	return t
}

// InOutOfCore compares in-core, out-of-core (disk-streamed), and in-situ
// (§7) rendering of the same volume. The paper's §6.3 observes that
// "reading bricks from disk can take several orders of magnitude more
// time than the entire MapReduce process", and proposes in-situ delivery
// over the interconnect as the remedy — both effects are measured here.
func InOutOfCore(sc Scale) (*report.Table, error) {
	t := report.New("In-core vs out-of-core vs in-situ (abstract + §6.3/§7)",
		"mode", "volume", "GPUs", "runtime(s)", "MVPS")
	dims := volume.Cube(sc.Edges[len(sc.Edges)-1])
	gpus := 2
	modes := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"in-core", func(o *core.Options) {}},
		{"out-of-core (disk)", func(o *core.Options) { o.FromDisk = true }},
		{"in-situ (interconnect hand-off)", func(o *core.Options) { o.InSitu = true }},
	}
	for _, m := range modes {
		res, err := RenderConfig(dataset.Skull, dims, gpus, sc.ImageSize, m.mutate)
		if err != nil {
			return nil, err
		}
		t.Add(m.name, dims.String(), fmt.Sprint(gpus), report.Sec(res.Runtime), report.F0(res.VPSMillions))
	}
	return t, nil
}
