package core

import (
	"fmt"
	"sync"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/schedule"
	"gvmr/internal/sim"
)

// Frame is one delivered frame of a multi-frame render: the full Result
// plus the frame's virtual duration. Err is set instead of Result when
// the frame failed.
type Frame struct {
	Index  int
	Result *Result
	// Time is the frame's simulated duration on its own cluster
	// instance — the value RenderSequence reports in PerFrame.
	Time sim.Time
	Err  error
}

// RenderOn renders one frame on a fresh instance of spec and returns the
// result plus the frame's virtual duration — the single-frame job API:
// every call is an independent, deterministic simulation, safe to issue
// concurrently from any number of goroutines. devWorkers caps the host
// cores the instance's simulated devices use for kernel blocks (≤ 0
// means all of GOMAXPROCS); callers running many jobs at once split the
// machine with schedule.DeviceWorkers. The render service calls this
// once per admitted request.
func RenderOn(spec cluster.Spec, opt Options, devWorkers int) (*Result, sim.Time, error) {
	inst, err := instance(spec, devWorkers)
	if err != nil {
		return nil, 0, err
	}
	return renderTimed(inst, opt)
}

// instance builds a fresh instance of spec whose simulated devices use at
// most devWorkers host cores (≤ 0 means all of GOMAXPROCS).
func instance(spec cluster.Spec, devWorkers int) (*cluster.Cluster, error) {
	inst, err := spec.Instance()
	if err != nil {
		return nil, err
	}
	inst.SetDeviceWorkers(devWorkers)
	return inst, nil
}

// renderTimed renders one frame on cl and returns it with the virtual
// time cl's clock advanced by.
func renderTimed(cl *cluster.Cluster, opt Options) (*Result, sim.Time, error) {
	start := cl.Env.Now()
	r, err := Render(cl, opt)
	if err != nil {
		return nil, 0, err
	}
	return r, cl.Env.Now() - start, nil
}

// renderFrameJob renders cams[f] through render and returns the result
// plus the frame's virtual duration. It is the unit of work both the
// frame loop and RenderFramesAsync schedule.
func renderFrameJob(render func(Options) (*Result, sim.Time, error), opt Options, cams []*camera.Camera, f int) (Frame, error) {
	opt.Camera = cams[f]
	r, dur, err := render(opt)
	if err != nil {
		return Frame{Index: f}, fmt.Errorf("core: frame %d: %w", f, err)
	}
	return Frame{Index: f, Result: r, Time: dur}, nil
}

// onInstances renders each frame on a fresh instance of cl's spec whose
// devices use devWorkers host cores.
func onInstances(cl *cluster.Cluster, devWorkers int) func(Options) (*Result, sim.Time, error) {
	return func(opt Options) (*Result, sim.Time, error) { return RenderOn(cl.Params, opt, devWorkers) }
}

// renderFrames is the one multi-frame loop: it renders one frame per
// camera and returns the frames in camera order plus the pool width it
// used. keep(f) reports whether frame f's image is retained; the others
// are dropped as soon as the frame is done, so they are not all held
// until the join. The caller's cluster clock ends advanced by the summed
// frame durations, as if it had rendered the frames back to back.
//
// A non-nil Options.Trace renders the frames back to back on the
// caller's cluster itself, so the trace is one timeline. Otherwise the
// frames render concurrently across host cores, each on a fresh instance
// of the cluster's spec, and the clock is advanced afterwards; output is
// bit-identical either way.
func renderFrames(cl *cluster.Cluster, opt Options, cams []*camera.Camera, keep func(f int) bool) ([]Frame, int, error) {
	workers := schedule.Workers(len(cams))
	render := onInstances(cl, schedule.DeviceWorkers(workers))
	if opt.Trace != nil {
		workers = 1
		render = func(o Options) (*Result, sim.Time, error) { return renderTimed(cl, o) }
	}
	frames, err := schedule.Map(workers, len(cams), func(f int) (Frame, error) {
		fr, err := renderFrameJob(render, opt, cams, f)
		if err == nil && !keep(f) {
			fr.Result.Image = nil
		}
		return fr, err
	})
	if err != nil {
		return nil, 0, err
	}
	if opt.Trace == nil {
		var total sim.Time
		for _, fr := range frames {
			total += fr.Time
		}
		if err := cl.Env.RunUntil(cl.Env.Now() + total); err != nil {
			return nil, 0, err
		}
	}
	return frames, workers, nil
}

func validateFrames(opt *Options, cams []*camera.Camera) error {
	if err := opt.fillDefaults(); err != nil {
		return err
	}
	if len(cams) == 0 {
		return fmt.Errorf("core: no cameras")
	}
	for i, cam := range cams {
		if cam == nil {
			return fmt.Errorf("core: nil camera %d", i)
		}
	}
	return nil
}

// RenderFrames renders one frame per camera — an animation path, a
// turntable, a stereo pair — concurrently across host cores, each frame
// on a fresh instance of the cluster's spec, and returns the results in
// camera order. The pool is GOMAXPROCS wide; a non-nil Options.Trace
// renders the frames back to back on the caller's cluster instead, so
// the trace is one timeline. Output is bit-identical either way. The
// caller's cluster clock advances by the summed frame durations, as if
// it had rendered the frames back to back.
func RenderFrames(cl *cluster.Cluster, opt Options, cams []*camera.Camera) ([]*Result, error) {
	if err := validateFrames(&opt, cams); err != nil {
		return nil, err
	}
	frames, _, err := renderFrames(cl, opt, cams, func(int) bool { return true })
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(frames))
	for i, fr := range frames {
		out[i] = fr.Result
	}
	return out, nil
}

// RenderFramesAsync renders one frame per camera concurrently and
// streams the frames on the returned channel in camera order, each as
// soon as it and all its predecessors are done. The stream applies
// backpressure: rendering runs only a small window ahead of the
// consumer, so undelivered framebuffers stay bounded. A failed frame is
// delivered in-stream with Err set; remaining frames still render. The
// channel closes after the last frame.
//
// The returned stop function cancels the stream: frames already
// rendering finish, no new frames start, and the channel closes early.
// A consumer that stops reading before the channel closes MUST call
// stop (or keep draining) — abandoning the channel otherwise blocks the
// render goroutines forever. Calling stop after completion is a no-op;
// it is safe to `defer stop()`.
//
// Every frame renders on a fresh instance of the cluster's spec — the
// caller's cluster clock is not advanced (consumers that want session
// accounting sum Frame.Time themselves), and a non-nil Options.Trace
// only serialises execution; its spans come from per-frame instances
// that each start at virtual time zero. Use RenderFrames for a single
// coherent timeline.
func RenderFramesAsync(cl *cluster.Cluster, opt Options, cams []*camera.Camera) (<-chan Frame, func(), error) {
	if err := validateFrames(&opt, cams); err != nil {
		return nil, nil, err
	}
	workers := 1
	if opt.Trace == nil {
		workers = schedule.Workers(len(cams))
	}
	render := onInstances(cl, schedule.DeviceWorkers(workers))
	done := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done) }) }
	items := schedule.Stream(workers, len(cams), func(f int) (Frame, error) {
		return renderFrameJob(render, opt, cams, f)
	}, done)
	out := make(chan Frame)
	go func() {
		defer close(out)
		for item := range items {
			fr := item.Value
			fr.Index = item.Index
			if item.Err != nil {
				fr.Err = item.Err
			}
			select {
			case out <- fr:
			case <-done:
				return
			}
		}
	}()
	return out, stop, nil
}
