// Command benchsuite regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	benchsuite -scale paper all
//	benchsuite -scale quick fig3 fig4
//	benchsuite -out results fig2        # writes PNGs next to the tables
//	benchsuite -scale quick -json BENCH_fig2.json seqbench
//	benchsuite -noskip seqbench         # A/B the empty-space skipping
//	benchsuite -cpuprofile suite.pprof fig2
//
// Subcommands: fig2 fig3 fig4 efficiency sec63 micro baseline claims
// inoutcore ablation zerocopy seqbench distbench oocbench all
//
// The figure sweeps fan independent cells out across host cores through
// the internal/schedule worker pool; -serial opts out (tables are
// bit-identical either way). seqbench runs a multi-frame orbit of the
// Figure 2 skull dataset serially and in parallel, verifies the outputs
// match bit for bit, renders the orbit with empty-space skipping on and
// off (digests must match; skip-on must not be slower in virtual time),
// and emits the machine-readable record (-json path, default
// BENCH_fig2.json) that tracks the perf trajectory. -noskip disables the
// macrocell DDA in every timed render; -cpuprofile writes a pprof CPU
// profile of the run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"sync"

	"gvmr/internal/experiments"
	"gvmr/internal/volume"
)

// profileStop flushes the -cpuprofile output (no-op when profiling is
// off). Exits must run it explicitly: log.Fatal skips defers, and a
// profile is most valuable exactly when a regression guard trips.
var profileStop = func() {}

// fatal and fatalf flush the profile, then exit like log.Fatal(f).
func fatal(v ...any) {
	profileStop()
	log.Fatal(v...)
}

func fatalf(format string, v ...any) {
	profileStop()
	log.Fatalf(format, v...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	var (
		scaleName  = flag.String("scale", "paper", "experiment scale: paper|quick")
		outDir     = flag.String("out", "", "directory for rendered PNGs (fig2)")
		serial     = flag.Bool("serial", false, "run sweep cells one at a time (scheduler opt-out)")
		workers    = flag.Int("workers", 0, "scheduler pool width for sweeps (0 = GOMAXPROCS)")
		jsonPath   = flag.String("json", "BENCH_fig2.json", "output path for the seqbench record")
		frames     = flag.Int("frames", 8, "frames in the seqbench orbit")
		noSkip     = flag.Bool("noskip", false, "disable macrocell empty-space skipping (A/B the acceleration structure)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path (perf work starts from profiles, not guesses)")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		var once sync.Once
		profileStop = func() {
			once.Do(func() {
				pprof.StopCPUProfile()
				f.Close()
			})
		}
		defer profileStop()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	var sc experiments.Scale
	switch *scaleName {
	case "paper":
		sc = experiments.Paper()
	case "quick":
		sc = experiments.Quick()
	default:
		fatalf("unknown scale %q", *scaleName)
	}
	sc.Serial = *serial
	sc.Workers = *workers
	sc.NoSkip = *noSkip

	cmds := flag.Args()
	if len(cmds) == 0 {
		cmds = []string{"all"}
	}
	known := map[string]bool{
		"all": true, "fig2": true, "fig3": true, "fig4": true,
		"efficiency": true, "sec63": true, "micro": true, "baseline": true,
		"claims": true, "inoutcore": true, "ablation": true, "zerocopy": true,
		"seqbench": true, "distbench": true, "oocbench": true,
	}
	want := map[string]bool{}
	for _, c := range cmds {
		if !known[c] {
			fmt.Fprintf(os.Stderr, "benchsuite: unknown subcommand %q\n", c)
			profileStop()
			os.Exit(2)
		}
		want[c] = true
	}
	all := want["all"]
	need := func(name string) bool { return all || want[name] }

	fmt.Printf("== gvmr benchsuite — scale %q ==\n\n", sc.Name)

	var sweep []experiments.SweepRow
	ensureSweep := func() []experiments.SweepRow {
		if sweep == nil {
			log.Printf("running scaling sweep (%v volumes × %v GPUs)...", sc.Edges, sc.GPUCounts)
			var err error
			sweep, err = experiments.Sweep(sc)
			if err != nil {
				fatal(err)
			}
		}
		return sweep
	}

	if need("fig2") {
		t, err := experiments.Fig2(sc, *outDir)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if need("fig3") {
		fmt.Println(experiments.Fig3(ensureSweep()))
	}
	if need("fig4") {
		fps, vps := experiments.Fig4(ensureSweep())
		fmt.Println(fps)
		fmt.Println(vps)
	}
	if need("efficiency") {
		fmt.Println(experiments.Efficiency(ensureSweep()))
	}
	if need("sec63") {
		_, t, err := experiments.Sec63(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if need("micro") {
		t, err := experiments.Micro()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if need("baseline") {
		t, err := experiments.BaselineCmp(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if need("claims") {
		fmt.Println(experiments.ClaimsReport(sc, ensureSweep()))
	}
	if need("inoutcore") {
		t, err := experiments.InOutOfCore(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if need("ablation") {
		t, err := experiments.Ablations(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if need("zerocopy") {
		fmt.Println(experiments.ZeroCopy(sc))
	}
	if want["seqbench"] {
		// Not part of "all": it is a wall-clock A/B of the frame
		// scheduler, not a paper table.
		log.Printf("seqbench: %d-frame orbit, %s scale, serial then parallel...", *frames, sc.Name)
		b, err := experiments.RunSeqBench(sc, *frames)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("seqbench: serial %.2fs, parallel %.2fs (%d workers) → %.2fx wall speedup, bit-identical: %v\n",
			b.Serial.WallSeconds, b.Parallel.WallSeconds, b.Parallel.Workers,
			b.SpeedupWall, b.BitIdentical)
		fmt.Printf("seqbench: macrocell grid: %.1f%% fewer fetches (%d leapt or answered), virtual %.2fs → %.2fs (%.2fx), bit-identical: %v\n",
			100*b.Skip.SampleReduction, b.Skip.On.SamplesSkipped,
			b.Skip.Off.VirtualSeconds, b.Skip.On.VirtualSeconds,
			b.Skip.SpeedupVirtual, b.Skip.BitIdentical)
		if !b.BitIdentical {
			fatal("seqbench: parallel output diverged from serial — determinism bug")
		}
		if !b.Skip.BitIdentical {
			fatal("seqbench: empty-space skipping changed the image — conservativeness bug")
		}
		if b.Skip.On.Samples+b.Skip.On.SamplesSkipped != b.Skip.Off.Samples {
			fatalf("seqbench: %d fetches issued + %d not issued, the dense march issues %d — accounting bug",
				b.Skip.On.Samples, b.Skip.On.SamplesSkipped, b.Skip.Off.Samples)
		}
		if b.Skip.SpeedupVirtual < 1 {
			fatalf("seqbench: skip-on virtual time is slower than skip-off (%.3fx) — acceleration regression",
				b.Skip.SpeedupVirtual)
		}
		if *jsonPath != "" {
			if err := b.WriteJSON(*jsonPath); err != nil {
				fatal(err)
			}
			fmt.Printf("seqbench: wrote %s\n", *jsonPath)
		}
	}
	if want["distbench"] {
		// Not part of "all": it measures the distributed render cluster
		// (in-process HTTP workers), not a paper table.
		log.Printf("distbench: %d-frame orbit, classic 1/2/4 workers + raw-wire A/B + distributed reduce 2/4, %s scale...", *frames, sc.Name)
		b, err := experiments.RunDistBench(sc, *frames)
		if err != nil {
			fatal(err)
		}
		frameCount := int64(b.Config.Frames)
		for _, leg := range b.Legs {
			fmt.Printf("distbench: %-7s %d worker(s): virtual %.3fs (map %.3fs, wire %.3fs, reduce %.3fs), wall %.2fs, wire %d B/frame\n",
				leg.Mode, leg.Workers, leg.VirtualSeconds, leg.MapSeconds, leg.WireSeconds, leg.ReduceSeconds,
				leg.WallSeconds, leg.WireBytes/frameCount)
		}
		fmt.Printf("distbench: map-phase virtual speedup 1→2 workers %.2fx, 2→4 workers %.2fx; end-to-end 1→4 (reduce) %.2fx; wire compression %.2fx; coordinator overhead %.2fx wall, %.1f%% virtual; bit-identical: %v\n",
			b.SpeedupVirtual1to2, b.SpeedupVirtual2to4, b.SpeedupVirtual1to4,
			b.WireCompressionRatio,
			b.CoordinatorOverheadWall, 100*b.CoordinatorOverheadVirtual, b.BitIdentical)
		if !b.BitIdentical {
			fatal("distbench: distributed output diverged from the direct render — determinism bug")
		}
		if v1, v2 := b.Leg("classic", 1).VirtualSeconds, b.Leg("classic", 2).VirtualSeconds; v2 > v1 {
			fatalf("distbench: 2-worker virtual time %.3fs regressed past 1-worker %.3fs — distribution must not slow the job down",
				v2, v1)
		}
		// The compression-ratio and scaling floors are claims about the
		// paper-scale workload; quick-scale frames are small enough to be
		// fixed-overhead-dominated and would trip them spuriously.
		if sc.Name == "paper" {
			if b.WireCompressionRatio < 2 {
				fatalf("distbench: columnar wire compression %.2fx < 2x — wire encoding regression",
					b.WireCompressionRatio)
			}
			if b.SpeedupVirtual1to4 < 1.25 {
				fatalf("distbench: end-to-end 1→4-worker virtual speedup %.2fx ≤ the 1.25x floor — cluster scaling regression",
					b.SpeedupVirtual1to4)
			}
		}
		path := *jsonPath
		if path == "BENCH_fig2.json" {
			path = "BENCH_cluster.json" // distbench's own record, unless -json overrides
		}
		if path != "" {
			if err := b.WriteJSON(path); err != nil {
				fatal(err)
			}
			fmt.Printf("distbench: wrote %s\n", path)
		}
	}

	if want["oocbench"] {
		// Not part of "all": it is a wall-clock A/B of the demand pager
		// against the in-RAM staging path, not a paper table.
		log.Printf("oocbench: %d-frame orbit, %s scale, in-RAM then demand-paged from a bricked v2 file...", *frames, sc.Name)
		b, err := experiments.RunOocBench(sc, *frames)
		if err != nil {
			fatal(err)
		}
		fmt.Println(b)
		if !b.BitIdentical {
			fatal("oocbench: paged output diverged from the in-RAM render — paging correctness bug")
		}
		// Virtual time is ~1x, not exactly 1x: copy-backed bricks anchor
		// their macrocell grids at the ghost origin, so the modeled skip
		// traversal shifts slightly (pixels are exact — see BitIdentical).
		if b.VirtualRatio < 0.97 || b.VirtualRatio > 1.03 {
			fatalf("oocbench: paged virtual time ratio %.6f outside [0.97, 1.03] — paging leaked into the simulation", b.VirtualRatio)
		}
		if b.CacheEvictions == 0 || b.Pager.Reloads == 0 {
			fatalf("oocbench: evictions=%d reloads=%d — the staging budget did not force streaming",
				b.CacheEvictions, b.Pager.Reloads)
		}
		if !b.Sparse.BitIdentical {
			fatal("oocbench: sparse paged output diverged from the in-RAM render — brick skipping changed pixels")
		}
		if b.Sparse.SkippedBricks == 0 {
			fatal("oocbench: sparse volume skipped no render bricks — directory min/max skipping regression")
		}
		path := *jsonPath
		if path == "BENCH_fig2.json" {
			path = "BENCH_ooc.json" // oocbench's own record, unless -json overrides
		}
		if path != "" {
			if err := b.WriteJSON(path); err != nil {
				fatal(err)
			}
			fmt.Printf("oocbench: wrote %s\n", path)
		}
	}

	// The sweep and the figure renders share dataset synthesis through the
	// process-wide staging cache; show how much re-synthesis it absorbed.
	st := volume.Cache.Stats()
	fmt.Printf("staging cache: %d materialisations, %d cached stages, %d evictions, %.2f GiB in use (cap %.0f GiB)\n",
		st.Materialisations, st.Hits, st.Evictions,
		float64(st.BytesInUse)/(1<<30), float64(st.Capacity)/(1<<30))
}
