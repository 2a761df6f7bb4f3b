package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/server"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// layerUnits names every per-layer metric of the traced run with its
// unit. Layers are this repository's packages. A metric a workload does
// not exercise reads 0 there (orbit-direct never pages, serve-revisit has
// no wire). BENCHMARK.json lists the same names; a test holds the two
// together.
var layerUnits = map[string]string{
	// volume: the pager and its staging cache (orbit-paged).
	"volume.fill_ms":                   "ms",
	"volume.pager_reads_per_brick":     "ratio",
	"volume.pager_mib_per_frame":       "MiB",
	"volume.pager_reloads_per_frame":   "count",
	"volume.pager_fallbacks":           "count",
	"volume.pager_skipped_bricks":      "count",
	"volume.cache_hit_ratio":           "ratio",
	"volume.cache_evictions_per_frame": "count",
	"volume.write_v2_s":                "s",
	"volume.materialize_s":             "s",
	// render: the ray-casting kernel.
	"render.samples_per_frame":         "count",
	"render.samples_skipped_per_frame": "count",
	"render.macrocell_steps_per_frame": "count",
	"render.cast_ns_per_sample":        "ns",
	// core: the renderer built on the MapReduce library.
	"core.render_ms":           "ms",
	"core.map_ms":              "ms",
	"core.reduce_ms":           "ms",
	"core.fragments_per_frame": "count",
	// mapreduce and composite: the reduce side.
	"mapreduce.sort_ms":  "ms",
	"composite.pixel_ms": "ms",
	// sim: the modelled hardware's stage breakdown (virtual clock).
	"sim.map_ms":          "ms",
	"sim.partition_io_ms": "ms",
	"sim.sort_ms":         "ms",
	"sim.reduce_ms":       "ms",
	"sim.bytes_on_wire":   "B",
	// dist: coordinator, workers and the wire between them.
	"dist.virtual_map_ms":         "ms",
	"dist.virtual_wire_ms":        "ms",
	"dist.virtual_reduce_ms":      "ms",
	"dist.encode_ms":              "ms",
	"dist.encode_raw_ms":          "ms",
	"dist.decode_ms":              "ms",
	"dist.digest_ms":              "ms",
	"dist.wire_mib_per_frame":     "MiB",
	"dist.compress_ratio":         "ratio",
	"dist.map_hop_ms":             "ms",
	"dist.coordinator_self_ms":    "ms",
	"dist.batches_per_frame":      "count",
	"dist.push_ms":                "ms",
	"dist.collect_ms":             "ms",
	"dist.exchange_mib_per_frame": "MiB",
	"dist.collect_mib_per_frame":  "MiB",
	"dist.retries":                "count",
	"dist.hedges":                 "count",
	"dist.reduce_fallbacks":       "count",
	"resilience.breaker_opens":    "count",
	"resilience.sheds":            "count",
	"resilience.deadline_aborts":  "count",
	// server: the render service in front of it all.
	"server.http_hop_ms":      "ms",
	"server.render_inproc_ms": "ms",
	"server.overhead_ms":      "ms",
	"server.hit_us":           "us",
	"server.hit_inproc_us":    "us",
	"server.cache_hits":       "count",
	"server.cache_misses":     "count",
	"server.coalesced":        "count",
	"server.rejected":         "count",
	// img: what the client receives.
	"img.png_encode_ms": "ms",
	"img.raw_encode_ms": "ms",
	"img.digest_ms":     "ms",
	"img.png_kib":       "KiB",
	// bench: how far to trust this run.
	"bench.traced_frame_ms":    "ms",
	"bench.attributed_pct":     "%",
	"bench.trace_overhead_pct": "%",
	"bench.round_spread_pct":   "%",
	"bench.host_ref_min_ms":    "ms",
	"bench.host_ref_max_ms":    "ms",
}

// layers accumulates the traced round. Sums are over traced frames
// unless a field says otherwise; metrics() turns them into per-frame
// figures.
type layers struct {
	wallMs []float64 // traced frame wall per slot
	spans  []span
	sum    map[string]float64 // accumulators, by the metric they feed
	n      map[string]int     // sample counts where it is not the frame count

	fileBricks int
	front      server.Stats
}

func (l *layers) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// sinks keep timed calls from being optimised away.
var (
	sinkV4    vec.V4
	sinkBytes int
)

// castNsPerSample times render.CastPixel over a fixed 64×64 tile of the
// first brick at the orbit's first camera: the kernel's cost per sample
// with no engine, staging or emission around it. Best of three passes.
func castNsPerSample(opt core.Options, deg float64) (float64, error) {
	grid, err := core.PlanGrid(cluster.AC(jobGPUs), opt)
	if err != nil {
		return 0, err
	}
	cam, err := core.OrbitCamera(opt.Source, opt.Width, opt.Height, deg)
	if err != nil {
		return 0, err
	}
	bd, err := volume.StageBrick(volume.Cached(opt.Source), grid.Bricks[0])
	if err != nil {
		return 0, err
	}
	prm := render.Params{
		TF: opt.TF, StepVoxels: stepVoxels, TerminationAlpha: terminationAlpha, Shading: true,
	}.Prepare().PrepareBrick(bd)
	tile := min(64, opt.Width)
	x0, y0 := (opt.Width-tile)/2, (opt.Height-tile)/2
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		var samples int64
		t0 := time.Now()
		for y := y0; y < y0+tile; y++ {
			for x := x0; x < x0+tile; x++ {
				f, st := render.CastPixel(cam, grid.Space, bd, prm, x, y)
				samples += st.Samples
				sinkV4.X += f.A
			}
		}
		if samples == 0 {
			return 0, nil
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(samples)
		if pass == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// tracedRound runs one more round with span recording on and, after each
// frame, times the exported functions of each layer on that frame's real
// data. The spans go to trace-<workload>.json.
func (r *runner) tracedRound(inst instance, outDir string) (*layers, error) {
	lay := &layers{sum: map[string]float64{}, n: map[string]int{}}
	spec := cluster.AC(jobGPUs)

	// The options a frame of this workload renders with, so the layer
	// calls see the frame's own source (the pager, for orbit-paged).
	src, tf, err := skull(r.w.Edge)
	if err != nil {
		return nil, err
	}
	opt := renderOptions(r.w, src, tf)
	paged, _ := inst.(*pagedInstance)
	if paged != nil {
		opt = paged.opt
		lay.fileBricks = paged.ps.Stats().Bricks
	}
	grid, err := core.PlanGrid(spec, opt)
	if err != nil {
		return nil, err
	}
	ids := make([]int, grid.NumBricks())
	for i := range ids {
		ids[i] = i
	}
	castNs, err := castNsPerSample(opt, r.orb.degrees(0))
	if err != nil {
		return nil, err
	}
	lay.add("render.cast_ns_per_sample", castNs)

	var coord *dist.Coordinator
	var twin *server.Service
	front, _ := inst.(*httpInstance)
	switch r.w.Kind {
	case kindCluster:
		// A coordinator of the benchmark's own over the same workers,
		// for the virtual-time breakdown /render does not expose.
		coord, err = dist.NewCoordinator(dist.CoordinatorConfig{Nodes: front.workers.addrs, DistReduce: r.w.DistReduce})
		if err != nil {
			return nil, err
		}
	case kindServe:
		// A second service, called in process: the served frame minus HTTP.
		if twin, err = server.New(server.Config{GPUs: jobGPUs}); err != nil {
			return nil, err
		}
		defer closeService(twin)
	}

	var pager0 volume.PagerStats
	var cache0 volume.CacheStats
	snapshot := func() {
		if paged != nil {
			pager0, cache0 = paged.ps.Stats(), paged.cache.Stats()
		}
	}
	rec := r.env.rec
	after := func(slot, cam int, fr frameResult) {
		rec.on.Store(false)
		defer func() {
			snapshot()
			rec.on.Store(true)
		}()
		lay.wallMs = append(lay.wallMs, ms(fr.wall))
		if fr.err != nil {
			return
		}
		if paged != nil {
			ps, cs := paged.ps.Stats(), paged.cache.Stats()
			lay.add("pager.reads", float64(ps.BrickReads-pager0.BrickReads))
			lay.add("pager.bytes", float64(ps.BytesRead-pager0.BytesRead))
			lay.add("volume.pager_reloads_per_frame", float64(ps.Reloads-pager0.Reloads))
			lay.add("pager.fallbacks", float64(ps.Fallbacks-pager0.Fallbacks))
			lay.add("pager.skips", float64(ps.SkippedBricks-pager0.SkippedBricks))
			lay.add("cache.hits", float64(cs.Hits-cache0.Hits))
			lay.add("cache.misses", float64(cs.Misses-cache0.Misses))
			lay.add("volume.cache_evictions_per_frame", float64(cs.Evictions-cache0.Evictions))
		}
		deg := r.orb.degrees(cam)
		if err := lay.frameLayers(r, spec, opt, ids, deg, slot != cam, fr, coord, twin); err != nil {
			r.fail("traced round slot %d: %v", slot, err)
		}
	}
	snapshot()
	rec.on.Store(true)
	_, err = r.round(inst, false, after)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	if front != nil {
		lay.front = front.svc.Stats()
	}
	rec.mu.Lock()
	lay.spans = append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	if err := writeChrome(filepath.Join(outDir, "trace-"+r.w.Name+".json"), lay.spans); err != nil {
		return nil, err
	}
	return lay, nil
}

// frameLayers times each layer's exported functions on one frame's data.
func (l *layers) frameLayers(r *runner, spec cluster.Spec, opt core.Options, ids []int, deg float64,
	revisit bool, fr frameResult, coord *dist.Coordinator, twin *server.Service) error {
	ctx := context.Background()
	if twin != nil {
		req := server.Request{
			Dataset: dataset.Skull, Edge: r.w.Edge, Width: r.w.Image, Height: r.w.Image,
			Orbit: deg, GPUs: jobGPUs, Shading: true,
			StepVoxels: stepVoxels, TerminationAlpha: terminationAlpha,
		}
		t0 := time.Now()
		f, via, err := twin.Render(ctx, req)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if f.Digest != fr.digest {
			return fmt.Errorf("in-process service frame differs from the served one")
		}
		if revisit {
			if via != server.ViaCache {
				return fmt.Errorf("in-process revisit served via %q", via)
			}
			l.add("server.hit_us", ms(fr.wall)*1e3)
			l.add("server.hit_inproc_us", ms(d)*1e3)
			return nil
		}
		if via != server.ViaRender {
			return fmt.Errorf("in-process first visit served via %q", via)
		}
		l.add("server.render_inproc_ms", ms(d))
	}

	cam, err := core.OrbitCamera(opt.Source, opt.Width, opt.Height, deg)
	if err != nil {
		return err
	}
	opt.Camera = cam

	// core: the map phase alone, every brick.
	t0 := time.Now()
	mr, err := core.MapBricks(spec, opt, ids, 0)
	if err != nil {
		return err
	}
	l.add("core.map_ms", ms(time.Since(t0)))
	l.add("core.fragments_per_frame", float64(mr.FragmentCount()))

	// mapreduce + composite: sort the frame's fragments by pixel, fold
	// each pixel's group.
	kvs := make([]mapreduce.KV[composite.Fragment], 0, mr.FragmentCount())
	for _, s := range mr.Stripes {
		for _, f := range s.Frags {
			kvs = append(kvs, mapreduce.KV[composite.Fragment]{Key: f.Key, Val: f})
		}
	}
	t0 = time.Now()
	_, groups := mapreduce.CountingSort(kvs, int32(opt.Width*opt.Height))
	l.add("mapreduce.sort_ms", ms(time.Since(t0)))
	bg := vec.V4{W: 1}
	t0 = time.Now()
	for _, g := range groups {
		c := composite.CompositePixel(g, bg)
		sinkV4.X += c.X
	}
	l.add("composite.pixel_ms", ms(time.Since(t0)))

	if coord == nil {
		return nil
	}
	// dist: the wire codec on the frame's stripes, as one payload.
	const encoding = dist.EncodingColumnar2 // what a default coordinator negotiates
	t0 = time.Now()
	wire, err := dist.EncodePayloadAs(mr.Stripes, encoding)
	if err != nil {
		return err
	}
	l.add("dist.encode_ms", ms(time.Since(t0)))
	t0 = time.Now()
	raw, err := dist.EncodePayloadAs(mr.Stripes, dist.EncodingListV2)
	if err != nil {
		return err
	}
	l.add("dist.encode_raw_ms", ms(time.Since(t0)))
	t0 = time.Now()
	back, err := dist.DecodePayload(encoding, wire, 1<<30)
	if err != nil {
		return err
	}
	l.add("dist.decode_ms", ms(time.Since(t0)))
	t0 = time.Now()
	sinkBytes += len(dist.PayloadDigest(wire))
	l.add("dist.digest_ms", ms(time.Since(t0)))
	sinkBytes += len(back)
	l.add("dist.raw_bytes", float64(len(raw)))
	l.add("dist.wire_bytes_codec", float64(len(wire)))

	// dist: the same frame through a coordinator, for the virtual clock's
	// breakdown and the exact byte and batch counts.
	job := dist.JobSpec{
		Dataset: dataset.Skull, Edge: r.w.Edge, Width: r.w.Image, Height: r.w.Image,
		GPUs: jobGPUs, Shading: true, StepVoxels: stepVoxels, TerminationAlpha: terminationAlpha,
		Camera: dist.CameraFrom(cam),
	}
	res, bd, err := coord.RenderDetailed(ctx, job)
	if err != nil {
		return err
	}
	if res.Image.Digest() != fr.digest {
		return fmt.Errorf("coordinator frame differs from the served one")
	}
	l.add("dist.virtual_map_ms", bd.Map.Seconds()*1e3)
	l.add("dist.virtual_wire_ms", bd.Wire.Seconds()*1e3)
	l.add("dist.virtual_reduce_ms", bd.Reduce.Seconds()*1e3)
	l.add("dist.batches_per_frame", float64(bd.Batches))
	l.add("dist.wire_bytes", float64(bd.WireBytes))
	l.add("dist.exchange_bytes", float64(bd.ExchangeBytes))
	l.add("dist.collect_bytes", float64(bd.CollectBytes))
	return nil
}

// refFrame is the reference for one camera: a plain in-RAM core.RenderOn
// of the workload's options.
type refFrame struct {
	digest string
	pngSHA string // serve-revisit: SHA-256 of the reference PNG
}

// reference renders every camera the rounds asked for, in process and in
// RAM. In a traced run it doubles as the measurement of the plain render
// (core.render_ms), its kernel counts and modelled stage times, and the
// image encoders.
func (r *runner) reference(lay *layers) (map[int]refFrame, error) {
	src, tf, err := skull(r.w.Edge)
	if err != nil {
		return nil, err
	}
	if _, err := materialize(src); err != nil {
		return nil, err
	}
	opt := renderOptions(r.w, src, tf)
	ref := map[int]refFrame{}
	for slot := 0; slot < r.p.Cameras; slot++ {
		cam, _ := r.orb.camera(r.w, slot)
		if _, done := ref[cam]; done {
			continue
		}
		res, fr := renderDirect(opt, r.orb.degrees(cam))
		if fr.err != nil {
			return nil, fmt.Errorf("reference render of camera %d: %w", cam, fr.err)
		}
		rf := refFrame{digest: fr.digest}
		var png bytes.Buffer
		t0 := time.Now()
		if err := res.Image.EncodePNG(&png); err != nil {
			return nil, err
		}
		pngD := time.Since(t0)
		rf.pngSHA = sha256Hex(png.Bytes())
		ref[cam] = rf
		if lay == nil {
			continue
		}
		lay.add("core.render_ms", ms(fr.wall))
		st := res.Stats
		lay.add("render.samples_per_frame", float64(st.TotalSamples))
		lay.add("render.samples_skipped_per_frame", float64(st.TotalSamplesSkipped))
		lay.add("render.macrocell_steps_per_frame", float64(st.TotalCells))
		lay.add("sim.map_ms", st.MeanStage.Map.Seconds()*1e3)
		lay.add("sim.partition_io_ms", st.MeanStage.PartitionIO.Seconds()*1e3)
		lay.add("sim.sort_ms", st.MeanStage.Sort.Seconds()*1e3)
		lay.add("sim.reduce_ms", st.MeanStage.Reduce.Seconds()*1e3)
		lay.add("sim.bytes_on_wire", float64(st.BytesOnWire))
		lay.add("img.png_encode_ms", ms(pngD))
		lay.add("img.png_kib", float64(png.Len())/1024)
		t0 = time.Now()
		if err := res.Image.EncodeRaw(io.Discard); err != nil {
			return nil, err
		}
		lay.add("img.raw_encode_ms", ms(time.Since(t0)))
		t0 = time.Now()
		sinkBytes += len(res.Image.Digest())
		lay.add("img.digest_ms", ms(time.Since(t0)))
	}
	return ref, nil
}

// avg is an accumulator's mean over its own samples.
func (l *layers) avg(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / float64(l.n[name])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the traced round into the per-layer metrics.
func (l *layers) metrics(r *runner) map[string]metric {
	const mib = 1 << 20
	// Most metrics are the mean of the accumulator of the same name (0
	// when the workload never fed it); the derived ones follow.
	v := map[string]float64{}
	for name := range layerUnits {
		v[name] = l.avg(name)
	}
	frames := float64(len(l.wallMs))
	tracedMs := mean(l.wallMs)

	// Spans: per-frame union and self time of each layer.
	total, self := layerTimes(l.spans)
	perFrame := func(d time.Duration) float64 { return ratio(ms(d), frames) }
	v["volume.fill_ms"] = perFrame(total[spanFill])
	v["dist.map_hop_ms"] = perFrame(self[spanMap])
	v["dist.push_ms"] = perFrame(total[spanPush])
	v["dist.collect_ms"] = perFrame(total[spanCollect])
	if r.w.Kind == kindCluster {
		v["dist.coordinator_self_ms"] = perFrame(self[spanRender])
	}
	if r.w.overHTTP() {
		v["server.http_hop_ms"] = perFrame(total[spanFrame] - total[spanRender])
	}

	// volume.
	v["volume.pager_reads_per_brick"] = ratio(l.avg("pager.reads"), float64(l.fileBricks))
	v["volume.pager_mib_per_frame"] = l.avg("pager.bytes") / mib
	v["volume.pager_fallbacks"] = l.sum["pager.fallbacks"]
	v["volume.pager_skipped_bricks"] = l.sum["pager.skips"]
	v["volume.cache_hit_ratio"] = ratio(l.sum["cache.hits"], l.sum["cache.hits"]+l.sum["cache.misses"])
	st := r.setupLay[len(r.setupLay)-1]
	v["volume.write_v2_s"] = st.writeV2.Seconds()
	v["volume.materialize_s"] = st.materialize.Seconds()

	// core: what a frame costs beyond its map phase: against the traced frame
	// where the frame is the in-process render itself, against the plain
	// render where it is wrapped in a service.
	whole := v["core.render_ms"]
	if !r.w.overHTTP() {
		whole = tracedMs
	}
	v["core.reduce_ms"] = whole - v["core.map_ms"]

	// dist counts.
	v["dist.wire_mib_per_frame"] = l.avg("dist.wire_bytes") / mib
	v["dist.exchange_mib_per_frame"] = l.avg("dist.exchange_bytes") / mib
	v["dist.collect_mib_per_frame"] = l.avg("dist.collect_bytes") / mib
	v["dist.compress_ratio"] = ratio(l.sum["dist.raw_bytes"], l.sum["dist.wire_bytes_codec"])
	if d := l.front.Dist; d != nil {
		v["dist.retries"] = float64(d.Retries)
		v["dist.hedges"] = float64(d.Hedges)
		v["dist.reduce_fallbacks"] = float64(d.ReduceFallbacks)
	}
	if rs := l.front.Resilience; rs != nil {
		v["resilience.breaker_opens"] = float64(rs.BreakerOpens)
		v["resilience.deadline_aborts"] = float64(rs.DeadlineAborts)
		for _, n := range rs.ShedsByClass {
			v["resilience.sheds"] += float64(n)
		}
	}

	// server.
	if r.w.Kind == kindServe {
		v["server.overhead_ms"] = v["server.render_inproc_ms"] - v["core.render_ms"]
	}
	v["server.cache_hits"] = float64(l.front.Cache.Hits)
	v["server.cache_misses"] = float64(l.front.Cache.Misses)
	v["server.coalesced"] = float64(l.front.Coalesced)
	v["server.rejected"] = float64(l.front.Rejected)

	// bench: the traced frame, how much of it independent measurements
	// explain, and the noise indicators.
	v["bench.traced_frame_ms"] = tracedMs
	var explained float64
	switch r.w.Kind {
	case kindDirect, kindPaged:
		// Separately timed map, sort and fold against the real frame.
		explained = v["core.map_ms"] + v["mapreduce.sort_ms"] + v["composite.pixel_ms"]
	case kindCluster:
		// Span self times: they tile the frame when the spans nest.
		explained = v["server.http_hop_ms"] + v["dist.coordinator_self_ms"] + v["dist.map_hop_ms"] +
			v["dist.push_ms"] + v["dist.collect_ms"]
	case kindServe:
		// A miss: hop + plain render + PNG + digest; hits are ~free.
		misses := float64(l.n["server.render_inproc_ms"])
		explained = v["server.http_hop_ms"] +
			(v["core.render_ms"]+v["img.png_encode_ms"]+v["img.digest_ms"])*ratio(misses, frames)
	}
	v["bench.attributed_pct"] = 100 * ratio(explained, tracedMs)
	// Compare frame walls only: a traced round's own total also holds
	// the layer calls made between frames.
	bestRound, slowRound := sum(r.rounds[0]), sum(r.rounds[0])
	for _, walls := range r.rounds {
		bestRound, slowRound = min(bestRound, sum(walls)), max(slowRound, sum(walls))
	}
	v["bench.trace_overhead_pct"] = 100 * (ratio(sum(l.wallMs), bestRound) - 1)
	v["bench.round_spread_pct"] = 100 * (ratio(slowRound, bestRound) - 1)
	lo, hi := r.hostRef[0], r.hostRef[0]
	for _, h := range r.hostRef {
		lo, hi = min(lo, h), max(hi, h)
	}
	v["bench.host_ref_min_ms"], v["bench.host_ref_max_ms"] = lo, hi

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{Value: v[name], Unit: unit}
	}
	return out
}
