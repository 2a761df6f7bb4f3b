package core

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/mapreduce"
	"gvmr/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/virtual.txt from a fresh run")

// frameCase is one frame configuration: a skull 32³ job on gpus GPUs at
// image² pixels (64² when zero), with set applied to its options.
type frameCase struct {
	name  string
	gpus  int
	image int
	set   func(*Options)
}

// frameCases are the configurations the engine and the compositors take,
// plus the two distributed topologies. TestTraceCoversMakespan traces
// every one; TestVirtualTimesPinned pins every one's numbers.
var frameCases = []frameCase{
	{"1gpu", 1, 0, nil},
	{"4gpu", 4, 0, nil},
	{"8gpu", 8, 0, nil},
	{"4-bricks-per-gpu", 4, 0, func(o *Options) { o.BricksPerGPU = 4 }},
	{"8gpu-4-bricks-per-gpu", 8, 0, func(o *Options) { o.BricksPerGPU = 4 }},
	{"from-disk", 4, 0, func(o *Options) { o.FromDisk = true }},
	{"from-disk-8x4", 8, 0, func(o *Options) { o.FromDisk, o.BricksPerGPU = true, 4 }},
	{"dynamic", 4, 0, func(o *Options) { o.Assign = mapreduce.AssignDynamic }},
	{"dynamic-8x4", 8, 0, func(o *Options) { o.Assign, o.BricksPerGPU = mapreduce.AssignDynamic, 4 }},
	{"in-situ", 4, 0, func(o *Options) { o.InSitu = true }},
	{"in-situ-8", 8, 0, func(o *Options) { o.InSitu = true }},
	{"binary-swap-4", 4, 0, func(o *Options) { o.Compositor = BinarySwap }},
	{"binary-swap-8", 8, 0, func(o *Options) { o.Compositor = BinarySwap }},
	{"binary-swap-8x4", 8, 0, func(o *Options) { o.Compositor, o.BricksPerGPU = BinarySwap, 4 }},
	{"gpu-sort-reduce", 4, 0, func(o *Options) { o.SortOn, o.ReduceOn = mapreduce.OnGPU, mapreduce.OnGPU }},
	{"slicing", 4, 0, func(o *Options) { o.Sampler = Slicing }},
	{"no-empty-skip", 4, 0, func(o *Options) { o.NoEmptySkip = true }},
	{"interleave-2", 4, 0, func(o *Options) { o.Partition = Interleaved{NumParts: 2} }},
	{"interleave-2-8x4", 8, 0, func(o *Options) { o.Partition, o.BricksPerGPU = Interleaved{NumParts: 2}, 4 }},
	{"flush-320", 1, 320, nil}, // one unit of over flushKVs fragments
	{"dist-reduce", 4, 0, nil},
	{"classic", 4, 0, nil},
}

// frameReplays marks the rows run as distributed frames — Replay.Run over
// their units' charges, mapped in two batches — instead of by Render; the
// value is Run's gather.
var frameReplays = map[string]bool{"dist-reduce": false, "classic": true}

// run renders (or replays) the case with tr as its trace.
func (tc frameCase) run(t *testing.T, tr *trace.Log) *Result {
	t.Helper()
	opt := skullOptions(t, 32, cmp.Or(tc.image, 64), tc.gpus)
	if tc.set != nil {
		tc.set(&opt)
	}
	opt.Trace = tr
	var res *Result
	var err error
	if gather, replay := frameReplays[tc.name]; replay {
		plan, charges := recordedCharges(t, cluster.AC(tc.gpus), opt, 2)
		res, err = plan.Run(charges, gather)
	} else {
		res, err = Render(newCluster(t, tc.gpus), opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// virtualLine is one case's row of the pinned table: every virtual time
// and engine count the frame reports, and its image digest ("-" for a
// replay, which renders nothing).
func virtualLine(name string, r *Result) string {
	s := r.Stats
	digest := "-"
	if r.Image != nil {
		digest = r.Image.Digest()
	}
	return fmt.Sprintf("%s runtime=%d swap=%d makespan=%d wire=%d msgs=%d emitted=%d received=%d "+
		"samples=%d skipped=%d cells=%d mapcompute=%d mapcomm=%d stage=%d/%d/%d/%d digest=%s",
		name, r.Runtime, r.SwapTime, s.Makespan, s.BytesOnWire, s.Messages, s.TotalEmitted, s.TotalReceived,
		s.TotalSamples, s.TotalSamplesSkipped, s.TotalCells, s.MapCompute, s.MapComm,
		s.MeanStage.Map, s.MeanStage.PartitionIO, s.MeanStage.Sort, s.MeanStage.Reduce, digest)
}

// TestVirtualTimesPinned diffs every frame case's virtual times, engine
// statistics and image digest against testdata/virtual.txt. The numbers
// are a function of the options alone — not of the host's core count or
// of which code path produced the fragments — so any change to them is a
// change to the model and must be reviewed: rerun with -update to rewrite
// the file.
func TestVirtualTimesPinned(t *testing.T) {
	var lines []string
	for _, tc := range frameCases {
		lines = append(lines, virtualLine(tc.name, tc.run(t, nil)))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "virtual.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, g := range lines {
		if i >= len(wantLines) || wantLines[i] != g {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("row %d:\n got %s\nwant %s", i, g, w)
		}
	}
	if string(want) != got {
		t.Errorf("table differs from %s (%d rows pinned, %d run)", path, len(wantLines)-1, len(lines))
	}
}
