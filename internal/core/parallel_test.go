package core

import (
	"reflect"
	"runtime"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
	"gvmr/internal/transfer"
	"gvmr/internal/volume/dataset"
)

// withProcs sets GOMAXPROCS — the frame pool's width — to n for the rest
// of the test. Values above the core count force a real pool on any
// machine.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func seqOptions(t *testing.T) Options {
	t.Helper()
	src, err := dataset.New(dataset.Skull, dataset.PaperDims(dataset.Skull, 24))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := transfer.Preset(dataset.Skull)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Source: src, TF: tf, Width: 48, Height: 48}
}

func renderSeq(t *testing.T, opt Options) *SequenceResult {
	t.Helper()
	cl, err := cluster.AC(2).Instance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RenderSequence(cl, opt, 4, 180)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSequenceParallelMatchesSerial is the scheduler's core contract:
// fanning the frames of a sequence out across real goroutines, each on a
// fresh cluster instance, must reproduce the back-to-back path a trace
// selects bit for bit — images, per-frame virtual times, and the full
// per-frame JobStats.
func TestSequenceParallelMatchesSerial(t *testing.T) {
	withProcs(t, 4) // a real pool even on one core
	serialOpt := seqOptions(t)
	serialOpt.Trace = &trace.Log{}
	serial := renderSeq(t, serialOpt)

	par := renderSeq(t, seqOptions(t))

	if par.Workers != 4 || serial.Workers != 1 {
		t.Fatalf("pool widths = %d serial / %d parallel", serial.Workers, par.Workers)
	}
	if serial.Total != par.Total {
		t.Errorf("total: serial %v != parallel %v", serial.Total, par.Total)
	}
	if !reflect.DeepEqual(serial.PerFrame, par.PerFrame) {
		t.Errorf("per-frame times differ:\nserial   %v\nparallel %v", serial.PerFrame, par.PerFrame)
	}
	if serial.LastImage.Digest() != par.LastImage.Digest() {
		t.Error("last images differ between serial and parallel execution")
	}
	if !reflect.DeepEqual(serial.FrameStats, par.FrameStats) {
		t.Error("per-frame JobStats differ between serial and parallel execution")
	}
	if serial.Agg != par.Agg {
		t.Errorf("aggregated stats differ:\nserial   %+v\nparallel %+v", serial.Agg, par.Agg)
	}
	if serial.MeanFPS != par.MeanFPS {
		t.Errorf("mean FPS: serial %v != parallel %v", serial.MeanFPS, par.MeanFPS)
	}
}

// TestSequenceParallelDeterministic: repeated parallel runs with the same
// options produce identical JobStats (stage breakdown, wire bytes),
// per-frame times and images, at different pool widths. Runs under -race
// in CI.
func TestSequenceParallelDeterministic(t *testing.T) {
	withProcs(t, 3)
	a := renderSeq(t, seqOptions(t))
	for run := 0; run < 2; run++ {
		withProcs(t, 2+run*4) // 2 then 6 workers
		b := renderSeq(t, seqOptions(t))
		if !reflect.DeepEqual(a.FrameStats, b.FrameStats) {
			t.Errorf("run %d: JobStats differ across parallel runs", run)
		}
		if !reflect.DeepEqual(a.PerFrame, b.PerFrame) {
			t.Errorf("run %d: per-frame times differ across parallel runs", run)
		}
		if a.LastImage.Digest() != b.LastImage.Digest() {
			t.Errorf("run %d: images differ across parallel runs", run)
		}
		if a.Agg != b.Agg {
			t.Errorf("run %d: aggregated stats differ across parallel runs", run)
		}
	}
}

// TestSequenceAdvancesSessionClock: parallel execution still accumulates
// virtual time on the caller's cluster, as an interactive session would.
func TestSequenceAdvancesSessionClock(t *testing.T) {
	withProcs(t, 2)
	opt := seqOptions(t)
	cl, err := cluster.AC(2).Instance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RenderSequence(cl, opt, 3, 90)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Env.Now() != res.Total {
		t.Errorf("session clock at %v after a %v sequence", cl.Env.Now(), res.Total)
	}
}

// TestRenderFramesMatchesSequence: the public frame API renders the same
// orbit cameras to the same images and durations as RenderSequence.
func TestRenderFramesMatchesSequence(t *testing.T) {
	withProcs(t, 3)
	opt := seqOptions(t)
	seq := renderSeq(t, opt)

	cams, err := OrbitCameras(opt.Source, opt.Width, opt.Height, 4, 180)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.AC(2).Instance()
	if err != nil {
		t.Fatal(err)
	}
	results, err := RenderFrames(cl, opt, cams)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	if results[3].Image.Digest() != seq.LastImage.Digest() {
		t.Error("RenderFrames last image differs from RenderSequence")
	}
	if !reflect.DeepEqual(results[3].Stats, seq.FrameStats[3]) {
		t.Error("RenderFrames stats differ from RenderSequence")
	}
	if cl.Env.Now() != seq.Total {
		t.Errorf("session clock %v != sequence total %v", cl.Env.Now(), seq.Total)
	}
}

// TestRenderFramesAsyncStreamsInOrder: the async API delivers every
// frame, in index order, with the same content as the synchronous API.
func TestRenderFramesAsyncStreamsInOrder(t *testing.T) {
	withProcs(t, 3)
	opt := seqOptions(t)
	cams, err := OrbitCameras(opt.Source, opt.Width, opt.Height, 5, 360)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.AC(2).Instance()
	if err != nil {
		t.Fatal(err)
	}
	sync, err := RenderFrames(cl, opt, cams)
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := cl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := RenderFramesAsync(cl2, opt, cams)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	i := 0
	for fr := range ch {
		if fr.Err != nil {
			t.Fatalf("frame %d: %v", fr.Index, fr.Err)
		}
		if fr.Index != i {
			t.Fatalf("frame %d delivered at position %d", fr.Index, i)
		}
		if fr.Result.Image.Digest() != sync[i].Image.Digest() {
			t.Errorf("frame %d image differs from synchronous render", i)
		}
		if fr.Time <= 0 {
			t.Errorf("frame %d has no duration", i)
		}
		i++
	}
	if i != len(cams) {
		t.Fatalf("stream delivered %d of %d frames", i, len(cams))
	}
}

// TestSequenceErrorFirstFrame: back-to-back and pooled rendering both
// report the failure of the lowest-index failing frame, identically
// wrapped.
func TestSequenceErrorFirstFrame(t *testing.T) {
	withProcs(t, 3)
	opt := seqOptions(t)
	opt.GPUs = 99 // more GPUs than the cluster has: every frame fails
	opt.Trace = &trace.Log{}
	cl, err := cluster.AC(2).Instance()
	if err != nil {
		t.Fatal(err)
	}
	_, serialErr := RenderSequence(cl, opt, 3, 90)
	opt.Trace = nil
	cl2, _ := cl.Clone()
	_, parErr := RenderSequence(cl2, opt, 3, 90)
	if serialErr == nil || parErr == nil {
		t.Fatal("expected errors")
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("error text differs:\nserial   %v\nparallel %v", serialErr, parErr)
	}
}

// TestTracedFramesShareOneTimeline: a trace is the one reason frames
// render back to back on the caller's cluster. The traced frames must
// match the pooled ones bit for bit, end on the same session clock, and
// lie end to end on that clock — not each on its own timeline from zero.
func TestTracedFramesShareOneTimeline(t *testing.T) {
	withProcs(t, 3)
	opt := seqOptions(t)
	cams, err := OrbitCameras(opt.Source, opt.Width, opt.Height, 3, 90)
	if err != nil {
		t.Fatal(err)
	}
	render := func(log *trace.Log) ([]*Result, *cluster.Cluster) {
		t.Helper()
		cl, err := cluster.AC(2).Instance()
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Trace = log
		results, err := RenderFrames(cl, o, cams)
		if err != nil {
			t.Fatal(err)
		}
		return results, cl
	}
	log := &trace.Log{}
	traced, tcl := render(log)
	pooled, pcl := render(nil)
	for f := range cams {
		if traced[f].Image.Digest() != pooled[f].Image.Digest() {
			t.Errorf("frame %d: traced image differs from pooled", f)
		}
		if !reflect.DeepEqual(traced[f].Stats, pooled[f].Stats) {
			t.Errorf("frame %d: traced stats differ from pooled", f)
		}
	}
	end := tcl.Env.Now()
	if end != pcl.Env.Now() {
		t.Errorf("session clock: traced %v != pooled %v", end, pcl.Env.Now())
	}
	if log.Len() == 0 {
		t.Fatal("trace recorded no spans")
	}
	var latest sim.Time
	for _, s := range log.Spans() {
		latest = max(latest, s.End)
	}
	if latest > end {
		t.Errorf("latest span ends at %v, after the session clock %v", latest, end)
	}
	frame0 := opt
	frame0.Camera = cams[0]
	_, d0, err := RenderOn(cluster.AC(2), frame0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest <= d0 {
		t.Errorf("latest span ends at %v, within frame 0's %v: frames were not laid end to end", latest, d0)
	}
}
