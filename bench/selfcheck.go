package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

const selfcheckRuns = 10

// runSelfcheck repeats the acceptance driver's procedure on this code:
// two sets of ten runs per workload, each run with another seed. Per
// workload × end-to-end metric it prints both medians, each set's
// quartile spread as a share of its median, how much worse the second
// median is than the first, and the bound; it fails if a spread (set-up
// time excepted, as in the driver) or a worsening exceeds the bound.
func runSelfcheck(outDir string, stdout, stderr io.Writer) int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: selfcheck runs from the repository root:", err)
		return 2
	}
	// values[set][workload][metric] = one value per run.
	var values [2]map[string]map[string][]float64
	failedRuns := 0
	start := time.Now()
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, cw := range c.Workloads {
			w, ok := findWorkload(cw.Name)
			if !ok {
				fmt.Fprintf(stderr, "bench: BENCHMARK.json names unknown workload %q\n", cw.Name)
				return 2
			}
			byMetric := map[string][]float64{}
			for seed := uint64(1); seed <= selfcheckRuns; seed++ {
				res, err := child(w, seed, 0, outDir, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				if !res.Correct {
					failedRuns++
				}
				for name, m := range res.Metrics {
					byMetric[name] = append(byMetric[name], m.Value)
				}
				fmt.Fprintf(stderr, "set %d %s seed %d done (%.0fs elapsed)\n", set+1, w.Name, seed, time.Since(start).Seconds())
			}
			values[set][w.Name] = byMetric
		}
	}

	fmt.Fprintf(stdout, "Two sets of %d runs per workload (seeds 1–%d), %s, %d vCPU, GOMAXPROCS 1, %s.\n\n",
		selfcheckRuns, selfcheckRuns, runtime.Version(), runtime.NumCPU(), time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintln(stdout, "| workload | metric | median 1 | spread 1 | median 2 | spread 2 | worse by | bound | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, cw := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := values[0][cw.Name][m.Name], values[1][cw.Name][m.Name]
			if len(a) != selfcheckRuns || len(b) != selfcheckRuns {
				fmt.Fprintf(stderr, "bench: %s never reported %s\n", cw.Name, m.Name)
				return 1
			}
			m1, m2 := median(a), median(b)
			s1, s2 := quartileSpread(a), quartileSpread(b)
			worse := (m2 - m1) / m1
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && max(s1, s2) > m.Bound) {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(stdout, "| %s | %s (%s) | %.6g | %.3g %% | %.6g | %.3g %% | %+.3g %% | %.3g %% | %s |\n",
				cw.Name, m.Name, m.Unit, m1, 100*s1, m2, 100*s2, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "\n%d runs reported an incorrect frame; %d of %d rows exceed their bound.\n",
		failedRuns, bad, len(c.Workloads)*len(c.EndToEnd))
	if bad > 0 || failedRuns > 0 {
		return 1
	}
	return 0
}
