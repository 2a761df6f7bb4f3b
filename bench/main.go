// Command bench is gvmr's frame benchmark: five closed-loop workloads
// over a 40-camera orbit, every frame's bits verified, end-to-end
// metrics from untraced rounds and per-layer metrics from one traced
// round. See README.md for the protocol and BENCHMARK.json (repository
// root) for the metric contract.
//
//	bash bench/run.sh --workload orbit-direct --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                 # every workload, timed then traced
//	bash bench/run.sh -selfcheck      # the acceptance procedure, twice ten seeds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// scrubbed are the environment variables that would resize the caches
// under measurement.
var scrubbed = []string{"GVMR_STAGING_BYTES", "GVMR_FRAME_BYTES"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and end with the driver's JSON line (default: all five)")
	seed := fs.Uint64("seed", 1, "rotates the orbit's start phase within one step and moves the revisit slots")
	fs.Float64("seconds", 10, "accepted for the driver; the protocol is fixed at three rounds (≈ 10 s), so every run measures the same work")
	trace := fs.Int("trace", 0, "1: the traced run, reporting per-layer metrics and writing the span file")
	out := fs.String("out", "bench/out", "directory for run records, span files and scratch data")
	selfcheck := fs.Bool("selfcheck", false, "run the acceptance procedure and print its table as markdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, k := range scrubbed {
		if os.Getenv(k) != "" {
			fmt.Fprintf(stderr, "bench: %s is set and would resize a cache under measurement; unset it (bench/run.sh does)\n", k)
			return 2
		}
	}
	switch {
	case *selfcheck:
		return runSelfcheck(*out, stdout, stderr)
	case *name == "":
		return runSuite(*seed, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, fullPlan, *seed, *trace != 0, *out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a process of its own — peak RSS is a
// per-process figure — and returns its final JSON line.
func child(w workload, seed uint64, trace int, outDir string, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self,
		"--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
		"--trace", strconv.Itoa(trace), "--out", outDir)
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return result{}, fmt.Errorf("%s: %w\n%s", w.Name, err, outBytes)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", w.Name, jerr)
	}
	return res, nil
}

// runSuite runs every workload timed, then every workload traced, and
// prints every metric by name with its unit.
func runSuite(seed uint64, outDir string, stdout, stderr io.Writer) int {
	status := 0
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			res, err := child(w, seed, trace, outDir, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			mode := "end-to-end"
			if trace == 1 {
				mode = "per-layer (traced round)"
			}
			fmt.Fprintf(stdout, "%s — %s, seed %d, %d frames attempted, %d failed\n", w.Name, mode, seed, res.Attempted, res.Failed)
			for _, n := range sortedKeys(res.Metrics) {
				fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
			if !res.Correct {
				status = 1
			}
		}
	}
	return status
}
