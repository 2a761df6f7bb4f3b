// Command benchsuite regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	benchsuite -scale paper all
//	benchsuite -scale quick fig3 fig4
//	benchsuite -out results fig2        # writes PNGs next to the tables
//	benchsuite -cpuprofile suite.pprof fig2
//
// Subcommands: fig2 fig3 fig4 efficiency sec63 micro baseline claims
// inoutcore ablation zerocopy all
//
// Every table is on the virtual clock; wall-clock frame timing is
// bench/'s job. The figure sweeps fan independent cells out across host
// cores through the internal/schedule worker pool, GOMAXPROCS wide;
// GOMAXPROCS=1 runs them one at a time, and the output is byte-identical
// either way. -cpuprofile writes a pprof CPU profile of the run.
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

	cmds := flag.Args()
	if len(cmds) == 0 {
		cmds = []string{"all"}
	}
	known := map[string]bool{
		"all": true, "fig2": true, "fig3": true, "fig4": true,
		"efficiency": true, "sec63": true, "micro": true, "baseline": true,
		"claims": true, "inoutcore": true, "ablation": true, "zerocopy": true,
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

	// The sweep and the figure renders share dataset synthesis through the
	// process-wide staging cache; show how much re-synthesis it absorbed.
	st := volume.Cache.Stats()
	fmt.Printf("staging cache: %d materialisations, %d cached stages, %d evictions, %.2f GiB in use (cap %.0f GiB)\n",
		st.Materialisations, st.Hits, st.Evictions,
		float64(st.BytesInUse)/(1<<30), float64(st.Capacity)/(1<<30))
}
