package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/render"
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

func directDigest(t *testing.T, job JobSpec) string {
	t.Helper()
	opt, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.RenderOn(job.PlanSpec(), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Image.Digest()
}

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

// TestVirtualTimeScalesWithWorkers: with 1-GPU nodes, a 4-brick job's
// map phase must get faster in virtual time as nodes are added (the
// distributed scaling claim; the tier-1 guard that 2 workers beat 1).
// The per-job fixed overhead (250ms, paid node-parallel) dwarfs map work
// at test scale, so the assertion is on the map component of the
// breakdown.
func TestVirtualTimeScalesWithWorkers(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 64, 4, 0, false)
	mapVirtual := map[int]float64{}
	for _, workers := range []int{1, 2, 4} {
		addrs := startWorkers(t, workers, nil)
		coord := newTestCoordinator(t, addrs, nil)
		res, bd, err := coord.RenderDetailed(context.Background(), job)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := bd.Map + bd.Wire + bd.Reduce; got != res.Runtime {
			t.Errorf("%d workers: breakdown sum %v != runtime %v", workers, got, res.Runtime)
		}
		// One batch per node that received bricks; the consistent hash
		// may leave a node empty when bricks are few.
		if bd.Fragments <= 0 || bd.WireBytes <= 0 || bd.Batches < 1 || bd.Batches > int64(workers) {
			t.Errorf("%d workers: implausible breakdown %+v", workers, bd)
		}
		mapVirtual[workers] = bd.Map.Seconds()
	}
	if !(mapVirtual[2] < mapVirtual[1]) {
		t.Errorf("2-worker map virtual %v not faster than 1-worker %v", mapVirtual[2], mapVirtual[1])
	}
	if !(mapVirtual[4] < mapVirtual[2]) {
		t.Errorf("4-worker map virtual %v not faster than 2-worker %v", mapVirtual[4], mapVirtual[2])
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
