package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/render"
	"gvmr/internal/sim"
	"gvmr/internal/volume/dataset"
)

// testJob builds a JobSpec for a built-in dataset at `degrees` along the
// fitted orbit.
func testJob(t *testing.T, name string, edge, size, gpus int, degrees float64, shading bool) JobSpec {
	t.Helper()
	src, err := dataset.New(name, dataset.PaperDims(name, edge))
	if err != nil {
		t.Fatal(err)
	}
	cam, err := core.OrbitCamera(src, size, size, degrees)
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{
		Dataset: name, Edge: edge, Width: size, Height: size,
		GPUs: gpus, Shading: shading,
		StepVoxels: 1, TerminationAlpha: 0.98,
		Camera: CameraFrom(cam),
	}
}

// startWorkers spins n in-process worker nodes, each a 1-GPU machine.
func startWorkers(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		wk, err := NewWorker(WorkerConfig{Spec: cluster.AC(1)})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = wk
		if wrap != nil {
			h = wrap(i, h)
		}
		mux := http.NewServeMux()
		mux.Handle(MapPath, h)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

func newTestCoordinator(t *testing.T, addrs []string, mut func(*CoordinatorConfig)) *Coordinator {
	t.Helper()
	cfg := CoordinatorConfig{Nodes: addrs}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// direct renders job in one process, as core.RenderOn on its plan spec.
func direct(t *testing.T, job JobSpec) *core.Result {
	t.Helper()
	opt, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.RenderOn(job.PlanSpec(), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func directDigest(t *testing.T, job JobSpec) string { return direct(t, job).Image.Digest() }

// directRuntime is the virtual time of job's single-process render: the
// time a dist-reduce frame of it takes.
func directRuntime(t *testing.T, job JobSpec) sim.Time { return direct(t, job).Runtime }

// TestDistributedMatchesDirect is the core contract: for every built-in
// dataset, a render sharded over 1, 2 and 3 worker nodes produces the
// byte-exact image of a single-process render of the same job.
func TestDistributedMatchesDirect(t *testing.T) {
	for _, name := range dataset.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			job := testJob(t, name, 24, 48, 2, 30, name == dataset.Skull)
			want := directDigest(t, job)
			for _, workers := range []int{1, 2, 3} {
				addrs := startWorkers(t, workers, nil)
				coord := newTestCoordinator(t, addrs, nil)
				res, _, err := coord.Render(context.Background(), job)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if got := res.Image.Digest(); got != want {
					t.Errorf("%d workers: digest %s != direct %s", workers, got, want)
				}
				if res.Runtime <= 0 {
					t.Errorf("%d workers: non-positive virtual runtime %v", workers, res.Runtime)
				}
			}
		})
	}
}

// TestMapBuildsSkipStructuresOnce: JobSpec.Options hands every /map the
// same preset instance, so the renderer's pointer-keyed memos hit across
// requests. Two jobs from different cameras on one dataset (an edge no
// other test stages) build at most one skip grid and one step-0.5 table on
// the worker between them — it used to be one per request. The first job
// builds none when an earlier run in this process (-count) built them;
// the second, from another camera, must always build none.
func TestMapBuildsSkipStructuresOnce(t *testing.T) {
	coord := newTestCoordinator(t, startWorkers(t, 1, nil), nil)
	grids, tables := render.MemoBuilds()
	for i, most := range []int64{1, 0} {
		job := testJob(t, dataset.Skull, 20, 32, 1, []float64{30, 75}[i], false)
		job.StepVoxels = 0.5
		if _, _, err := coord.Render(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		g, tb := render.MemoBuilds()
		if g-grids > most || tb-tables > most {
			t.Errorf("job %d built %d skip grids and %d corrected tables, want at most %d of each", i, g-grids, tb-tables, most)
		}
		grids, tables = g, tb
	}
}

// TestCompositeStrategiesAndPartitionersAgree locks the coordinator-side
// reduce invariance: the one fold yields the direct bits whatever the
// eligible count the modelled reducers split pixels by (key % eligible),
// and it folds the same fragments every time.
func TestCompositeStrategiesAndPartitionersAgree(t *testing.T) {
	job := testJob(t, dataset.Skull, 24, 48, 2, 60, true)
	want := directDigest(t, job)
	var frags int64
	for _, workers := range []int{1, 2, 3} {
		coord := newTestCoordinator(t, startWorkers(t, workers, nil), nil)
		res, bd, err := coord.RenderDetailed(context.Background(), job)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := res.Image.Digest(); got != want {
			t.Errorf("%d workers: digest %s != direct %s", workers, got, want)
		}
		if workers > 1 && bd.Fragments != frags {
			t.Errorf("%d workers folded %d fragments, 1 worker %d", workers, bd.Fragments, frags)
		}
		frags = bd.Fragments
	}
}

// TestVirtualTimeIsTheJobs: a frame's virtual time is a function of its
// JobSpec alone. A dist-reduce frame takes the direct render's time, and
// a classic frame that time plus the gather term — one message per
// mapping GPU and every fragment at the engine's wire size into the
// coordinator's NIC — whatever the fleet: static fleets of 1, 2 and 3
// workers on random ports, a batch retried after a 5xx, a hedged batch,
// a deadline on the request, an exchange that falls back to classic.
func TestVirtualTimeIsTheJobs(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 64, 4, 30, true)
	want := direct(t, job)
	spec := job.PlanSpec()
	gather := sim.Time(job.GPUs)*(spec.NICLatency+spec.MsgOverhead) +
		sim.BytesTime(want.Stats.TotalEmitted*composite.FragmentBytes, spec.NICBandwidth)
	classic, reduce := want.Runtime+gather, want.Runtime

	// The first /map request the fleet sees fails, or stalls until a
	// hedge wins.
	var failed, stalled atomic.Bool
	failFirst := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failed.CompareAndSwap(false, true) {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	stallFirst := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			if stalled.CompareAndSwap(false, true) {
				select {
				case <-time.After(10 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, r)
		})
	}
	refusePushes := func(_ int, path string, h http.Handler) http.Handler {
		if path != ReducePath {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "injected", http.StatusInternalServerError)
		})
	}
	reduceFleet := func(n int, wrap func(int, string, http.Handler) http.Handler) []string {
		addrs, _ := startReduceWorkers(t, n, wrap)
		return addrs
	}
	deadline := func() context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		t.Cleanup(cancel)
		return ctx
	}
	for _, tc := range []struct {
		name  string
		addrs []string
		cfg   func(*CoordinatorConfig)
		ctx   context.Context
		want  sim.Time
		check func(CoordinatorStats) bool
	}{
		{"1 worker", startWorkers(t, 1, nil), nil, nil, classic, nil},
		{"2 workers", startWorkers(t, 2, nil), nil, nil, classic, nil},
		{"3 workers", startWorkers(t, 3, nil), nil, nil, classic, nil},
		{"retried after 5xx", startWorkers(t, 2, failFirst), nil, nil, classic,
			func(st CoordinatorStats) bool { return st.Retries >= 1 }},
		{"hedged", startWorkers(t, 3, stallFirst), func(c *CoordinatorConfig) { c.HedgeAfter = 25 * time.Millisecond }, nil, classic,
			func(st CoordinatorStats) bool { return st.HedgeWins >= 1 }},
		{"deadline", startWorkers(t, 2, nil), nil, deadline(), classic, nil},
		{"exchange fell back", reduceFleet(2, refusePushes), func(c *CoordinatorConfig) { c.DistReduce = true }, nil, classic,
			func(st CoordinatorStats) bool { return st.ReduceFallbacks == 1 }},
		{"dist-reduce 2 workers", reduceFleet(2, nil), func(c *CoordinatorConfig) { c.DistReduce = true }, nil, reduce,
			func(st CoordinatorStats) bool { return st.ReduceJobs == 1 }},
		{"dist-reduce 3 workers, deadline", reduceFleet(3, nil), func(c *CoordinatorConfig) { c.DistReduce = true }, deadline(), reduce,
			func(st CoordinatorStats) bool { return st.ReduceJobs == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := newTestCoordinator(t, tc.addrs, tc.cfg)
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			res, bd, err := coord.RenderDetailed(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Image.Digest(); got != want.Image.Digest() {
				t.Errorf("digest %s != direct %s", got, want.Image.Digest())
			}
			if res.Runtime != tc.want || bd.Map+bd.Wire+bd.Reduce != res.Runtime {
				t.Errorf("virtual time %v (breakdown %+v), want %v", res.Runtime, bd, tc.want)
			}
			if bd.Fragments != want.Stats.TotalEmitted {
				t.Errorf("%d fragments replayed, direct render emitted %d", bd.Fragments, want.Stats.TotalEmitted)
			}
			if st := coord.Stats(); tc.check != nil && !tc.check(st) {
				t.Errorf("the fault did not happen: %+v", st)
			}
		})
	}
}

// TestDistReduceMatchesRenderOn: a dist-reduce frame's bits and virtual
// time are core.RenderOn's across GPU counts, bricks per GPU, convex and
// interleaved units, and a job whose unit fills a reducer's send buffer
// mid-chunk.
func TestDistReduceMatchesRenderOn(t *testing.T) {
	addrs, _ := startReduceWorkers(t, 2, nil)
	coord := newTestCoordinator(t, addrs, func(c *CoordinatorConfig) { c.DistReduce = true })
	var jobs []JobSpec
	for _, gpus := range []int{1, 2, 4, 8} {
		for _, perGPU := range []int{1, 4} {
			job := testJob(t, dataset.Skull, 24, 48, gpus, 40, true)
			job.BricksPerGPU = perGPU
			jobs = append(jobs, job)
			if gpus*perGPU >= 2 {
				job.Partition = &PartitionSpec{Scheme: "interleave", Parts: 2}
				jobs = append(jobs, job)
			}
		}
	}
	flush := testJob(t, dataset.Skull, 32, 320, 1, 0, false)
	if _, _, charges := realBatch(t, flush, []int{0}); len(charges[0].Bricks[0].Flushes) == 0 {
		t.Fatal("premise: the one-brick job does not flush mid-chunk")
	}
	jobs = append(jobs, flush)
	for _, job := range jobs {
		want := direct(t, job)
		res, _, err := coord.Render(context.Background(), job)
		if err != nil {
			t.Fatalf("%d GPUs, %d per GPU, %v: %v", job.GPUs, job.BricksPerGPU, job.Partition, err)
		}
		if res.Image.Digest() != want.Image.Digest() || res.Runtime != want.Runtime {
			t.Errorf("%d GPUs, %d per GPU, %v: %s in %v, direct %s in %v", job.GPUs, job.BricksPerGPU, job.Partition,
				res.Image.Digest(), res.Runtime, want.Image.Digest(), want.Runtime)
		}
	}
	if st := coord.Stats(); st.ReduceFallbacks != 0 || st.ReduceJobs != int64(len(jobs)) {
		t.Errorf("not every frame went over the exchange: %+v", st)
	}
}

// TestPlacementAffinity: the same brick of the same job identity maps to
// the same node across frames (staging-cache affinity), and placement
// covers all nodes for a many-brick job.
func TestPlacementAffinity(t *testing.T) {
	r := newRing([]string{"a:1", "b:1", "c:1"})
	jobA := JobSpec{Dataset: dataset.Skull, Edge: 32, GPUs: 8}
	jobB := jobA
	jobB.Camera.FovY = 1 // different view, same identity fields
	seen := map[int]bool{}
	for brick := 0; brick < 64; brick++ {
		seqA := r.sequence(brickKey(jobA, brick))
		seqB := r.sequence(brickKey(jobB, brick))
		if len(seqA) != 3 || len(seqB) != 3 {
			t.Fatalf("brick %d: sequence lengths %d/%d", brick, len(seqA), len(seqB))
		}
		if seqA[0] != seqB[0] {
			t.Errorf("brick %d: camera changed placement %d -> %d", brick, seqA[0], seqB[0])
		}
		seen[seqA[0]] = true
		// A sequence is a permutation of all nodes.
		perm := map[int]bool{}
		for _, n := range seqA {
			perm[n] = true
		}
		if len(perm) != 3 {
			t.Errorf("brick %d: sequence %v is not a permutation", brick, seqA)
		}
	}
	if len(seen) != 3 {
		t.Errorf("64 bricks landed on %d of 3 nodes", len(seen))
	}
}

func TestWireRoundTrip(t *testing.T) {
	stripes := []core.BrickStripe{
		{Brick: 0, Frags: []composite.Fragment{
			{Key: 3, R: 0.25, G: 0.5, B: 0.125, A: 0.75, Depth: 1.5},
			{Key: 9, R: 0, G: 0, B: 0, A: 0, Depth: 2.25}, // transparent black survives the wire
		}},
		{Brick: 2}, // empty stripe
		{Brick: 5, Frags: []composite.Fragment{{Key: 0, A: 1, Depth: 0.5}}},
	}
	payload := encodeCF2(stripes)
	back, err := DecodePayload(EncodingColumnar2, payload, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(stripes) {
		t.Fatalf("round trip %d stripes != %d", len(back), len(stripes))
	}
	for i := range stripes {
		if back[i].Brick != stripes[i].Brick || len(back[i].Frags) != len(stripes[i].Frags) {
			t.Fatalf("stripe %d shape mismatch", i)
		}
		for j := range stripes[i].Frags {
			if back[i].Frags[j] != stripes[i].Frags[j] {
				t.Errorf("fragment %d/%d changed: %+v != %+v", i, j, back[i].Frags[j], stripes[i].Frags[j])
			}
		}
	}
	if PayloadDigest(payload) != PayloadDigest(encodeCF2(back)) {
		t.Error("re-encoding changed the payload bytes")
	}
}

func TestDecodeStripesRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"truncated header":  {1, 2, 3},
		"overlong count":    {0, 0, 0, 0, 255, 255, 255, 127},
		"negative brick id": {255, 255, 255, 255, 0, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := DecodePayload(EncodingColumnar2, data, 1<<20); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestGridPlanMismatchRejected: a worker whose plan disagrees must refuse
// the batch loudly.
func TestGridPlanMismatchRejected(t *testing.T) {
	wk, err := NewWorker(WorkerConfig{Spec: cluster.AC(1)})
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(t, dataset.Skull, 24, 48, 2, 0, false)
	_, err = wk.run(context.Background(), MapRequest{Job: job, Bricks: []int{0}, GridCounts: [3]int{7, 7, 7}})
	if err == nil {
		t.Fatal("mismatched grid plan accepted")
	}
}

// TestJobValidation exercises the worker-side limits.
func TestJobValidation(t *testing.T) {
	good := testJob(t, dataset.Skull, 24, 48, 2, 0, false)
	if err := good.Validate(512, 4096*4096); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	mutations := map[string]func(*JobSpec){
		"unknown dataset": func(j *JobSpec) { j.Dataset = "nope" },
		"tiny edge":       func(j *JobSpec) { j.Edge = 4 },
		"huge edge":       func(j *JobSpec) { j.Edge = 100000 },
		"zero width":      func(j *JobSpec) { j.Width = 0 },
		"pixel overflow":  func(j *JobSpec) { j.Width = 1 << 30; j.Height = 1 << 30 },
		"zero gpus":       func(j *JobSpec) { j.GPUs = 0 },
		"nan step":        func(j *JobSpec) { j.StepVoxels = float32(nan()) },
		"bad alpha":       func(j *JobSpec) { j.TerminationAlpha = 2 },
		"nan camera":      func(j *JobSpec) { j.Camera.Eye[0] = float32(nan()) },
		"bad fov":         func(j *JobSpec) { j.Camera.FovY = 4 },
	}
	for name, mut := range mutations {
		j := good
		mut(&j)
		if err := j.Validate(512, 4096*4096); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func nan() float64 { var z float64; return z / z }

// TestCoordinatorContextCancel: a cancelled job context fails fast rather
// than hanging on slow workers.
func TestCoordinatorContextCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addrs := startWorkers(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-block:
			case <-r.Context().Done():
			}
			h.ServeHTTP(w, r)
		})
	})
	coord := newTestCoordinator(t, addrs, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	job := testJob(t, dataset.Skull, 24, 48, 2, 0, false)
	if _, _, err := coord.Render(ctx, job); err == nil {
		t.Fatal("cancelled render returned no error")
	}
}
