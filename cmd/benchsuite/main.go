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
//
// The quick-scale tables of `all` are pinned in testdata/quick_all.txt;
// `go test ./cmd/benchsuite -update` rewrites the file after a reviewed
// change to what they report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"gvmr/internal/experiments"
	"gvmr/internal/volume"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line args, writing the tables to stdout and
// progress and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleName  = fs.String("scale", "paper", "experiment scale: paper|quick")
		outDir     = fs.String("out", "", "directory for rendered PNGs (fig2)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path (perf work starts from profiles, not guesses)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	if *cpuProfile != "" {
		// The deferred stop flushes the profile on every return, failed
		// runs included: a profile is most valuable exactly when a
		// regression guard trips.
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	var sc experiments.Scale
	switch *scaleName {
	case "paper":
		sc = experiments.Paper()
	case "quick":
		sc = experiments.Quick()
	default:
		return fail(fmt.Errorf("unknown scale %q", *scaleName))
	}

	cmds := fs.Args()
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
			fmt.Fprintf(stderr, "benchsuite: unknown subcommand %q\n", c)
			return 2
		}
		want[c] = true
	}
	all := want["all"]
	need := func(name string) bool { return all || want[name] }

	fmt.Fprintf(stdout, "== gvmr benchsuite — scale %q ==\n\n", sc.Name)

	if need("fig2") {
		t, err := experiments.Fig2(sc, *outDir)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, t)
	}
	var sweep []experiments.SweepRow
	if need("fig3") || need("fig4") || need("efficiency") || need("claims") {
		fmt.Fprintf(stderr, "benchsuite: running scaling sweep (%v volumes × %v GPUs)...\n", sc.Edges, sc.GPUCounts)
		var err error
		if sweep, err = experiments.Sweep(sc); err != nil {
			return fail(err)
		}
	}
	if need("fig3") {
		fmt.Fprintln(stdout, experiments.Fig3(sweep))
	}
	if need("fig4") {
		fps, vps := experiments.Fig4(sweep)
		fmt.Fprintln(stdout, fps)
		fmt.Fprintln(stdout, vps)
	}
	if need("efficiency") {
		fmt.Fprintln(stdout, experiments.Efficiency(sweep))
	}
	if need("sec63") {
		_, t, err := experiments.Sec63(sc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, t)
	}
	if need("micro") {
		t, err := experiments.Micro()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, t)
	}
	if need("baseline") {
		t, err := experiments.BaselineCmp(sc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, t)
	}
	if need("claims") {
		fmt.Fprintln(stdout, experiments.ClaimsReport(sc, sweep))
	}
	if need("inoutcore") {
		t, err := experiments.InOutOfCore(sc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, t)
	}
	if need("ablation") {
		t, err := experiments.Ablations(sc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, t)
	}
	if need("zerocopy") {
		fmt.Fprintln(stdout, experiments.ZeroCopy(sc))
	}

	// The sweep and the figure renders share dataset synthesis through the
	// process-wide staging cache; show how much re-synthesis it absorbed.
	st := volume.Cache.Stats()
	fmt.Fprintf(stdout, "%s%d materialisations, %d cached stages, %d evictions, %.2f GiB in use (cap %.0f GiB)\n",
		cacheFooter, st.Materialisations, st.Hits, st.Evictions,
		float64(st.BytesInUse)/(1<<30), float64(st.Capacity)/(1<<30))
	return 0
}

// cacheFooter starts the staging-cache line that ends every run. Its
// capacity follows the host's available memory and its counts the
// process's earlier runs, so the pinned tables leave it out.
const cacheFooter = "staging cache: "
