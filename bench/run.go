package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// plan is the fixed measurement protocol: nothing in it is a knob, so a
// change and its parent always measure the same work.
type plan struct {
	Cameras int // request slots per round
	Rounds  int // timed rounds; a camera's time is its minimum over them
	Setups  int // cold set-ups; setup_s is their median
	Warmups int // untimed frames ending each set-up
}

var fullPlan = plan{Cameras: 40, Rounds: 3, Setups: 3, Warmups: 4}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run leaves in the out directory so its numbers can be
// interpreted later.
type record struct {
	Workload    workload  `json:"workload"`
	Plan        plan      `json:"plan"`
	Seed        uint64    `json:"seed"`
	Trace       bool      `json:"trace"`
	NumCPU      int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	PhaseDeg    float64   `json:"phase_degrees"`
	RevisitSlot int       `json:"revisit_slot_mod5"`
	SetupS      []float64 `json:"setup_seconds"`
	RoundS      []float64 `json:"round_total_seconds"`
	HostRefMs   []float64 `json:"host_ref_ms"`
	RawP50Ms    float64   `json:"raw_frame_wall_p50_ms"`
	Failures    []string  `json:"failures,omitempty"`
	Result      result    `json:"result"`
}

// runner is one invocation's state: one workload, one seed.
type runner struct {
	w     workload
	p     plan
	seed  uint64
	orb   orbit
	trace bool
	env   env
	log   io.Writer

	attempted int
	failures  []string

	rounds   [][]float64 // per timed round, per slot wall ms
	roundS   []float64
	hostRef  []float64 // per round (timed, then traced), median reference ms
	virtual  []float64 // per slot, seconds (round 1)
	digests  [][]string
	bodies   []string // per slot, round 1 body digests
	setupS   []float64
	setupLay []setupTimes
}

func (r *runner) fail(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(r.log, "FAIL:", msg)
}

// hostRef times a fixed piece of work of the benchmark's own: a chain of
// 512 Ki dependent float32 additions (bound by instruction latency), then
// four independent chains of integer multiplies and look-ups in a 16 KiB
// table (bound by issue width and L1). The same work every time, so a
// slow reading means the host, not the code, was slow just then. Two
// kinds of loop because a busy host slows the two differently and a frame
// is a mix of both: over two 12-minute series on the reference VM the
// sum tracked the frame time better than either half (README,
// "End-to-end metrics").
func hostRef() float64 {
	t0 := time.Now()
	var s float32
	for _, v := range hostRefFloats {
		s += v
	}
	x0, x1, x2, x3 := uint32(1), uint32(2), uint32(3), uint32(4)
	for i := 0; i < 175_000; i++ {
		x0 = x0*2654435761 + hostRefTable[x0>>20]
		x1 = x1*2654435761 + hostRefTable[x1>>20]
		x2 = x2*2654435761 + hostRefTable[x2>>20]
		x3 = x3*2654435761 + hostRefTable[x3>>20]
	}
	hostRefSink = s + float32(x0^x1^x2^x3)
	return time.Since(t0).Seconds() * 1e3
}

// hostRefNominalMs is hostRef's reading on the reference VM at its faster
// speed. Wall-clock metrics are reported as if hostRef always took this
// long; see normalised.
const hostRefNominalMs = 0.85

var (
	hostRefFloats = ones(512 << 10)
	hostRefTable  = lcgTable(4096)
	hostRefSink   float32
)

// ones returns n written floats, so the first timed pass pays no page
// faults.
func ones(n int) []float32 {
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = 1
	}
	return buf
}

// lcgTable returns n fixed pseudo-random words.
func lcgTable(n int) []uint32 {
	t := make([]uint32, n)
	x := uint32(7)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x
	}
	return t
}

// normalised scales each round's wall times by hostRefNominalMs over
// that round's reference reading. The host is shared: for minutes at a
// time frames of identical code take 10–40 % longer. The reference work,
// sampled before every frame, slows with them, and dividing it out cuts
// the spread between runs of identical code to a third.
func normalised(rounds [][]float64, hostRef []float64) [][]float64 {
	out := make([][]float64, len(rounds))
	for k, walls := range rounds {
		out[k] = make([]float64, len(walls))
		for i, w := range walls {
			out[k][i] = w * hostRefNominalMs / hostRef[k]
		}
	}
	return out
}

// coldSetups performs the plan's cold set-ups, each ending with the
// warm-up frames, and leaves the last instance running for the rounds.
func (r *runner) coldSetups() (instance, error) {
	var inst instance
	for i := 0; i < r.p.Setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var st setupTimes
		var err error
		if inst, st, err = setup(r.w, r.env); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if err := inst.beginRound(); err != nil {
			inst.close()
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		for k := r.p.Warmups; k >= 1; k-- {
			if fr := inst.frame(r.orb.degrees(-k), false); fr.err != nil {
				inst.close()
				return nil, fmt.Errorf("set-up %d warm-up: %w", i+1, fr.err)
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.setupLay = append(r.setupLay, st)
	}
	return inst, nil
}

// round runs one closed-loop pass over the slots: one client, one frame
// in flight, the next view asked for when the last one arrives. after,
// when non-nil, runs once a frame is done and its clock stopped.
func (r *runner) round(inst instance, withBody bool, after func(slot, cam int, fr frameResult)) ([]frameResult, error) {
	if err := inst.beginRound(); err != nil {
		return nil, err
	}
	out := make([]frameResult, r.p.Cameras)
	refs := make([]float64, r.p.Cameras)
	revisits := 0
	t0 := time.Now()
	for slot := range out {
		refs[slot] = hostRef()
		cam, revisit := r.orb.camera(r.w, slot)
		if revisit {
			revisits++
		}
		r.env.rec.setFrame(slot)
		id := r.env.rec.begin(spanFrame)
		fr := inst.frame(r.orb.degrees(cam), withBody)
		r.env.rec.end(id, 0, 0)
		r.attempted++
		if fr.err == nil && r.w.Kind == kindServe {
			want := "render"
			if revisit {
				want = "cache"
			}
			if fr.served != want {
				fr.err = fmt.Errorf("served via %q, want %q", fr.served, want)
			}
		}
		if fr.err != nil {
			r.fail("round %d slot %d: %v", len(r.roundS)+1, slot, fr.err)
		}
		out[slot] = fr
		if after != nil {
			after(slot, cam, fr)
		}
	}
	r.roundS = append(r.roundS, time.Since(t0).Seconds())
	r.hostRef = append(r.hostRef, median(refs))
	for _, bad := range inst.endRound(len(out), revisits) {
		r.fail("round %d: %s", len(r.roundS), bad)
	}
	return out, nil
}

// timedRounds runs the plan's rounds.
func (r *runner) timedRounds(inst instance) error {
	for n := 0; n < r.p.Rounds; n++ {
		frames, err := r.round(inst, n == 0, nil)
		if err != nil {
			return err
		}
		walls, digests := make([]float64, len(frames)), make([]string, len(frames))
		for i, fr := range frames {
			walls[i], digests[i] = fr.wall.Seconds()*1e3, fr.digest
		}
		r.rounds, r.digests = append(r.rounds, walls), append(r.digests, digests)
		if n == 0 {
			for _, fr := range frames {
				r.virtual = append(r.virtual, fr.virtual)
				r.bodies = append(r.bodies, fr.bodyDigest)
			}
		}
	}
	return nil
}

// verify holds every round's every frame — and, over HTTP, round 1's
// received bodies — against the reference render of its camera.
func (r *runner) verify(ref map[int]refFrame) {
	for n, digests := range r.digests {
		for slot, d := range digests {
			cam, _ := r.orb.camera(r.w, slot)
			if d != ref[cam].digest {
				r.fail("round %d slot %d: digest %.12s differs from the reference render %.12s", n+1, slot, d, ref[cam].digest)
			}
		}
	}
	if !r.w.overHTTP() {
		return
	}
	for slot, got := range r.bodies {
		cam, _ := r.orb.camera(r.w, slot)
		want := ref[cam].digest
		if r.w.Kind == kindServe {
			want = ref[cam].pngSHA
		}
		if got != want {
			r.fail("round 1 slot %d: received body digests to %.12s, reference to %.12s", slot, got, want)
		}
	}
}

// peakRSSMiB is VmHWM of this process: the high-water mark of resident
// memory so far.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// endToEnd computes the end-to-end metrics from the timed rounds. The
// three wall-clock metrics are host-speed normalised; set-up time is not
// (it does not follow the reference loop).
func (r *runner) endToEnd(rssMiB float64) map[string]metric {
	best := bestOfRounds(normalised(r.rounds, r.hostRef))
	sorted := sortedCopy(best)
	return map[string]metric{
		"frame_wall_p50_ms":    {percentile(sorted, 0.50), "ms"},
		"frame_wall_p75_ms":    {percentile(sorted, 0.75), "ms"},
		"frames_per_s":         {float64(len(best)) / (sum(best) / 1e3), "1/s"},
		"virtual_ms_per_frame": {mean(r.virtual) * 1e3, "ms"},
		"peak_rss_mib":         {rssMiB, "MiB"},
		"setup_s":              {median(r.setupS), "s"},
	}
}

// measure sets the workload up, runs the timed rounds and then either
// reads peak RSS (timed run) or runs the traced round (traced run, lay
// non-nil). The instance is closed before verification starts.
func (r *runner) measure(outDir string) (lay *layers, rssMiB float64, err error) {
	inst, err := r.coldSetups()
	if err != nil {
		return nil, 0, err
	}
	defer inst.close()
	if err := r.timedRounds(inst); err != nil {
		return nil, 0, err
	}
	if r.trace {
		lay, err = r.tracedRound(inst, outDir)
		return lay, 0, err
	}
	rssMiB, err = peakRSSMiB()
	return nil, rssMiB, err
}

// runWorkload is one driver invocation: set up, measure, verify, report.
func runWorkload(w workload, p plan, seed uint64, trace bool, outDir string, log io.Writer) (result, error) {
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	r := &runner{
		w: w, p: p, seed: seed, orb: newOrbit(seed, p.Cameras), trace: trace, log: log,
		env: env{rec: newRecorder(), tmpDir: tmp},
	}
	if trace {
		// The traced run reports no set-up time and needs the timed
		// rounds only as the baseline of the tracing overhead.
		r.p.Setups, r.p.Rounds = 1, 2
	}
	lay, rss, err := r.measure(outDir)
	if err != nil {
		return result{}, err
	}
	ref, err := r.reference(lay)
	if err != nil {
		return result{}, err
	}
	metrics := r.endToEnd(rss)
	if trace {
		metrics = lay.metrics(r)
	}
	r.verify(ref)

	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    min(len(r.failures), r.attempted),
		Metrics:   metrics,
	}
	r.report(res, outDir)
	return res, nil
}

// report prints every metric by name and leaves the run record behind.
func (r *runner) report(res result, outDir string) {
	fmt.Fprintf(r.log, "%s  seed %d  %d cameras x %d rounds  n = %d per percentile  rounds %.2fs  set-ups %.2fs\n",
		r.w.Name, r.seed, r.p.Cameras, len(r.rounds), r.p.Cameras, r.roundS, r.setupS)
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(r.log, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(r.log, "  failed %d of %d frames\n", res.Failed, res.Attempted)

	rec := record{
		Workload: r.w, Plan: r.p, Seed: r.seed, Trace: r.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		PhaseDeg: r.orb.phase, RevisitSlot: r.orb.revisit,
		SetupS: r.setupS, RoundS: r.roundS, HostRefMs: r.hostRef,
		RawP50Ms: percentile(sortedCopy(bestOfRounds(r.rounds)), 0.50),
		Failures: r.failures, Result: res,
	}
	mode := "timed"
	if r.trace {
		mode = "traced"
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%s-%s.json", r.w.Name, mode)), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(r.log, "warning: run record not written:", err)
	}
}
