package main

import (
	"io"
	"math"
	"net"
	"strconv"
	"testing"
	"time"
)

func TestPercentileIndex(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{40, 0.50, 19},
		{40, 0.75, 29}, // ten samples (30..39) lie beyond it
		{40, 1.00, 39},
		{4, 0.75, 2},
		{4, 0.50, 1},
		{1, 0.75, 0},
	} {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	sorted := make([]float64, 40)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
}

func TestBestOfRounds(t *testing.T) {
	got := bestOfRounds([][]float64{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}})
	want := []float64{4, 1, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bestOfRounds = %v, want %v", got, want)
		}
	}
	if bestOfRounds(nil) != nil {
		t.Error("bestOfRounds(nil) should be nil")
	}
	// The metrics built on it: p50/p75 of the minima, frames over their sum.
	sorted := sortedCopy(got)
	if p := percentile(sorted, 0.5); p != 4 {
		t.Errorf("p50 of minima = %v, want 4", p)
	}
	if fps := float64(len(got)) / (sum(got) / 1e3); math.Abs(fps-3000.0/13) > 1e-9 {
		t.Errorf("frames per second = %v", fps)
	}
}

func TestNormalised(t *testing.T) {
	// The second round ran while the host was a fifth slower: once that
	// is divided out, it reads like the first.
	got := normalised([][]float64{{10, 20}, {12, 24}}, []float64{hostRefNominalMs, 1.2 * hostRefNominalMs})
	for k := range got {
		for i, want := range []float64{10, 20} {
			if math.Abs(got[k][i]-want) > 1e-9 {
				t.Errorf("normalised round %d slot %d = %v, want %v", k, i, got[k][i], want)
			}
		}
	}
}

// A taken worker port must fail the set-up, never move the workers to
// another pair: placement hashes the addresses.
func TestBusyWorkerPortFails(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(workerPorts[1]))
	if err != nil {
		t.Skip("worker port already taken:", err)
	}
	defer l.Close()
	if cw, err := startWorkers(newRecorder()); err == nil {
		cw.close()
		t.Fatal("startWorkers succeeded with a worker port taken")
	}
}

// Expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(lo, hi int) interval { return interval{time.Duration(lo), time.Duration(hi)} }
	parent := []interval{iv(0, 100)}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(50, 60)}, 80},
		{"overlapping", []interval{iv(10, 30), iv(20, 40)}, 70},
		{"nested", []interval{iv(50, 60), iv(52, 55)}, 90},
		{"sticking out", []interval{iv(90, 120), iv(-5, 5)}, 85},
		{"all at once", []interval{iv(10, 30), iv(20, 40), iv(50, 60), iv(52, 55), iv(90, 120)}, 50},
		{"covering", []interval{iv(-1, 101)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
	// Two parents that overlap count once.
	if got := selfTime([]interval{iv(0, 60), iv(40, 100)}, []interval{iv(50, 70)}); got != 80 {
		t.Errorf("overlapping parents: selfTime = %d, want 80", got)
	}
}

func TestLayerTimesTileTheFrame(t *testing.T) {
	sp := func(name string, frame, lo, hi int) span {
		return span{Name: name, Frame: frame, Start: time.Duration(lo), End: time.Duration(hi)}
	}
	spans := []span{
		sp(spanFrame, 0, 0, 100),
		sp(spanRender, 0, 5, 95),
		sp(spanMap, 0, 10, 60), // two workers' map handlers interleave
		sp(spanMap, 0, 12, 70),
		sp(spanPush, 0, 50, 58), // a push lands inside the map phase
		sp(spanCollect, 0, 72, 90),
		sp(spanFrame, 1, 200, 260),
		sp(spanRender, 1, 210, 250),
		{Name: spanMap, Frame: 1, Start: 215, End: -1}, // never closed: ignored
	}
	total, self := layerTimes(spans)
	if total[spanMap] != 60 || self[spanMap] != 52 {
		t.Errorf("map total %d self %d, want 60 and 52", total[spanMap], self[spanMap])
	}
	if self[spanRender] != (90-60-18)+40 {
		t.Errorf("render self = %d", self[spanRender])
	}
	var all time.Duration
	for _, d := range self {
		all += d
	}
	if all != 160 {
		t.Errorf("self times add up to %d, want the 160 of the two frame spans", all)
	}
}

func TestOrbitIsDeterministicInSeed(t *testing.T) {
	serve, _ := findWorkload("serve-revisit")
	direct, _ := findWorkload("orbit-direct")
	phases := map[float64]bool{}
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := newOrbit(seed, 40), newOrbit(seed, 40)
		if a != b {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
		if a.step != 9 || a.phase < 0 || a.phase >= 9 {
			t.Fatalf("seed %d: phase %v outside [0, 9) or step %v != 9", seed, a.phase, a.step)
		}
		phases[a.phase] = true
		revisits := 0
		for slot := 0; slot < 40; slot++ {
			cam, revisit := a.camera(serve, slot)
			if c, r := a.camera(direct, slot); c != slot || r {
				t.Fatalf("orbit-direct slot %d asks camera %d (revisit %v)", slot, c, r)
			}
			if !revisit {
				if cam != slot {
					t.Fatalf("seed %d slot %d asks camera %d", seed, slot, cam)
				}
				continue
			}
			revisits++
			if cam != slot-2 {
				t.Fatalf("seed %d revisit slot %d asks camera %d, want two back", seed, slot, cam)
			}
			if _, again := a.camera(serve, cam); again {
				t.Fatalf("seed %d slot %d revisits a revisit slot", seed, slot)
			}
		}
		if revisits != 8 {
			t.Fatalf("seed %d: %d revisit slots, want 8 of 40", seed, revisits)
		}
		if d := a.degrees(-4); d < 0 || d >= 360 {
			t.Fatalf("warm-up camera at %v degrees", d)
		}
		if got, want := a.degrees(39), a.phase+351; math.Abs(got-want) > 1e-9 {
			t.Fatalf("last camera at %v, want %v", got, want)
		}
	}
	if len(phases) < 40 {
		t.Errorf("50 seeds gave only %d distinct phases", len(phases))
	}
}

// TestToySmoke runs all five workloads at toy size, timed and traced, in
// process, and checks that every metric BENCHMARK.json names is emitted
// with its unit.
func TestToySmoke(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	if len(c.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(c.PerLayer), len(layerUnits))
	}
	toyPlan := plan{Cameras: 4, Rounds: 1, Setups: 1, Warmups: 1}
	for _, cw := range c.Workloads {
		w, ok := findWorkload(cw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", cw.Name)
		}
		if cw.Why != w.Why {
			t.Errorf("%s: BENCHMARK.json's why differs from the benchmark's", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			// Seed 3 puts a revisit on slot 3 of 4, so the toy round of
			// serve-revisit has a cache hit to check.
			timed, err := runWorkload(w.toy(), toyPlan, 3, false, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted != 4 {
				t.Errorf("timed run: %+v", timed)
			}
			if len(timed.Metrics) != len(c.EndToEnd) {
				t.Errorf("timed run emitted %d metrics, BENCHMARK.json names %d", len(timed.Metrics), len(c.EndToEnd))
			}
			for _, m := range c.EndToEnd {
				got, ok := timed.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %q and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			traced, err := runWorkload(w.toy(), toyPlan, 3, true, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Errorf("traced run: %d of %d frames failed", traced.Failed, traced.Attempted)
			}
			if len(traced.Metrics) != len(c.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json names %d", len(traced.Metrics), len(c.PerLayer))
			}
			for _, m := range c.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
				}
			}
			if v := traced.Metrics["bench.traced_frame_ms"].Value; !(v > 0) {
				t.Errorf("traced frame time %v", v)
			}
		})
	}
}
