package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/img"
	"gvmr/internal/render"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
	"gvmr/internal/volume"
)

func TestInSituMatchesInCoreImage(t *testing.T) {
	inCore := skullOptions(t, 32, 40, 4)
	resIC, err := Render(newCluster(t, 4), inCore)
	if err != nil {
		t.Fatal(err)
	}
	inSitu := skullOptions(t, 32, 40, 4)
	inSitu.InSitu = true
	resIS, err := Render(newCluster(t, 4), inSitu)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := img.Diff(resIC.Image, resIS.Image)
	if maxErr > 1e-6 {
		t.Errorf("in-situ image differs by %.6f", maxErr)
	}
}

func TestInSituFarCheaperThanDisk(t *testing.T) {
	// §6.3/§7: disk streaming dwarfs everything; in-situ hand-off over
	// the interconnect avoids it.
	disk := skullOptions(t, 64, 40, 2)
	disk.FromDisk = true
	resDisk, err := Render(newCluster(t, 2), disk)
	if err != nil {
		t.Fatal(err)
	}
	situ := skullOptions(t, 64, 40, 2)
	situ.InSitu = true
	resSitu, err := Render(newCluster(t, 2), situ)
	if err != nil {
		t.Fatal(err)
	}
	if resSitu.Runtime >= resDisk.Runtime {
		t.Errorf("in-situ %v should beat disk streaming %v", resSitu.Runtime, resDisk.Runtime)
	}
}

func TestInSituExcludesFromDisk(t *testing.T) {
	opt := skullOptions(t, 32, 40, 2)
	opt.InSitu = true
	opt.FromDisk = true
	if _, err := Render(newCluster(t, 2), opt); err == nil {
		t.Error("InSitu+FromDisk accepted")
	}
}

func TestTraceCollectsSpans(t *testing.T) {
	opt := skullOptions(t, 32, 40, 4)
	log := &trace.Log{}
	opt.Trace = log
	if _, err := Render(newCluster(t, 4), opt); err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	cats := map[string]bool{}
	lanes := map[string]bool{}
	for _, s := range log.Spans() {
		cats[s.Cat] = true
		lanes[s.Lane] = true
		if s.End < s.Start {
			t.Fatalf("negative span %+v", s)
		}
	}
	for _, want := range []string{"map", "partition+io", "sort", "reduce", "net"} {
		if !cats[want] {
			t.Errorf("no %q spans recorded", want)
		}
	}
	if len(lanes) < 4 {
		t.Errorf("only %d lanes; want one per GPU at least", len(lanes))
	}
	// The export is valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := log.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(events) < log.Len() {
		t.Errorf("trace JSON has %d events for %d spans", len(events), log.Len())
	}
}

func TestRenderSequence(t *testing.T) {
	cl := newCluster(t, 4)
	opt := skullOptions(t, 32, 40, 4)
	seq, err := RenderSequence(cl, opt, 3, 90)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Frames != 3 || len(seq.PerFrame) != 3 {
		t.Fatalf("frames = %d / %d", seq.Frames, len(seq.PerFrame))
	}
	if seq.Total <= 0 || seq.MeanFPS <= 0 {
		t.Error("sequence totals empty")
	}
	var sum int64
	for _, f := range seq.PerFrame {
		if f <= 0 {
			t.Error("zero frame time")
		}
		sum += int64(f)
	}
	if int64(seq.Total) != sum {
		t.Errorf("total %v != sum of frames %v", seq.Total, sum)
	}
	if seq.LastImage == nil || seq.LastImage.MeanLuminance() <= 0 {
		t.Error("last frame empty")
	}
}

func TestRenderSequenceOrbitChangesView(t *testing.T) {
	// A quarter-orbit must produce a different image than frame zero.
	cl1 := newCluster(t, 2)
	opt := skullOptions(t, 32, 40, 2)
	seq1, err := RenderSequence(cl1, opt, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := newCluster(t, 2)
	seq2, err := RenderSequence(cl2, opt, 2, 180)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := img.Diff(seq1.LastImage, seq2.LastImage)
	if maxErr < 0.01 {
		t.Errorf("orbited frame identical to frame 0 (diff %.4f)", maxErr)
	}
}

func TestRenderSequenceValidation(t *testing.T) {
	cl := newCluster(t, 2)
	if _, err := RenderSequence(cl, skullOptions(t, 16, 24, 2), 0, 90); err == nil {
		t.Error("zero frames accepted")
	}
}

// TestUploadChargesResidentBoxes holds a render's texture uploads to the
// bricks' resident boxes (render.ResidentBox): with skipping on, their sum
// — less than the ghost regions on the skull — and with NoEmptySkip or the
// slicing sampler (which turns skipping off), every ghost region whole,
// the bytes the upload charged before resident boxes.
func TestUploadChargesResidentBoxes(t *testing.T) {
	const gpus = 4
	opt := skullOptions(t, 48, 48, gpus)
	opt.Shading = true
	uploaded := func(opt Options) int64 {
		cl := newCluster(t, gpus)
		if _, err := Render(cl, opt); err != nil {
			t.Fatal(err)
		}
		var n int64
		for i := 0; i < gpus; i++ {
			n += cl.Device(i).Stats().BytesH2D
		}
		return n
	}
	grid, err := PlanGrid(cluster.AC(gpus), opt)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := volume.Materialize(opt.Source)
	if err != nil {
		t.Fatal(err)
	}
	full := opt
	if err := full.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	var ghosts, boxes int64
	for _, b := range grid.Bricks {
		ghosts += b.Bytes()
		boxes += render.ResidentBox(volume.ViewBrick(vol, b), full.renderParams()).Ext.Bytes()
	}
	if boxes >= ghosts {
		t.Fatalf("premise: resident boxes hold %d bytes of the ghost regions' %d", boxes, ghosts)
	}
	if got := uploaded(opt); got != boxes {
		t.Errorf("skipping on: uploaded %d bytes, want the resident boxes' %d", got, boxes)
	}
	off := opt
	off.NoEmptySkip = true
	slicing := opt
	slicing.Sampler = Slicing
	for name, o := range map[string]Options{"NoEmptySkip": off, "slicing": slicing} {
		if got := uploaded(o); got != ghosts {
			t.Errorf("%s: uploaded %d bytes, want the ghost regions' %d", name, got, ghosts)
		}
	}
}

// TestTraceCoversMakespan renders a traced frame in every configuration
// the engine and the compositors take, and replays one as a distributed
// frame of either topology: the union of its spans over every lane is
// exactly [0, makespan], with no gap, so every modelled cost —
// partitioning, the binary-swap exchange and the classic gather included
// — shows on the timeline.
func TestTraceCoversMakespan(t *testing.T) {
	for _, tc := range frameCases {
		t.Run(tc.name, func(t *testing.T) {
			log := &trace.Log{}
			res := tc.run(t, log)
			gather := frameReplays[tc.name]
			gathers := 0
			for _, s := range log.Spans() {
				if s.Cat == "net" && s.Lane == "coordinator" {
					gathers++
				}
			}
			if want := map[bool]int{false: 0, true: 1}[gather]; gathers != want {
				t.Errorf("%d gather spans, want %d", gathers, want)
			}
			var covered sim.Time // end of the union so far; spans come sorted by start
			for _, s := range log.Spans() {
				if s.Start > covered {
					t.Fatalf("nothing traced over [%v, %v); next span %+v", covered, s.Start, s)
				}
				covered = max(covered, s.End)
			}
			if covered != res.Runtime {
				t.Errorf("spans end at %v, makespan %v", covered, res.Runtime)
			}
		})
	}
}
