// Distributed golden tests: the cluster coordinator sharding brick
// map-tasks over in-process HTTP worker nodes must reproduce the
// committed single-node golden digests bit for bit — in the healthy
// case, with a worker killed mid-job, and with a corrupted response
// retried. This is the end-to-end acceptance for internal/dist: the
// same file of digests guards the in-process renderer and the cluster.
package gvmr_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

func committedGoldens(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", goldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// goldenJob rebuilds goldenConfigs[i] as a distributed JobSpec with the
// exact fitted camera the single-node golden renders used.
func goldenJob(t *testing.T, i int) dist.JobSpec {
	t.Helper()
	c := goldenConfigs[i]
	sp := volume.NewSpace(dataset.PaperDims(c.dataset, c.edge))
	cam, err := camera.Fit(sp.Bounds(), c.size, c.size)
	if err != nil {
		t.Fatal(err)
	}
	return dist.JobSpec{
		Dataset: c.dataset, Edge: c.edge,
		Width: c.size, Height: c.size,
		GPUs: c.gpus, Shading: c.shading,
		StepVoxels: 1, TerminationAlpha: 0.98,
		Camera: dist.CameraFrom(cam),
	}
}

func startGoldenWorkers(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		wk, err := dist.NewWorker(dist.WorkerConfig{Spec: cluster.AC(1)})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle(dist.MapPath, wk)
		// Every worker is reduce-capable, like a real gvmrd; a classic
		// coordinator simply never calls these endpoints.
		mux.HandleFunc(dist.ReducePath, wk.HandleReducePush)
		mux.HandleFunc(dist.CollectPath, wk.HandleCollect)
		var h http.Handler = mux
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// goldenPartitionJob rebuilds the adversarial non-convex golden (the
// shaded skull on 16 bricks, interleaved into 2 checkerboard units) as a
// distributed JobSpec, at the fitted view (angle nil) or an orbit angle.
func goldenPartitionJob(t *testing.T, angle *float64) dist.JobSpec {
	t.Helper()
	job := goldenJob(t, 0) // config 0 is the shaded skull
	if angle != nil {
		src, err := dataset.New("skull", dataset.PaperDims("skull", 32))
		if err != nil {
			t.Fatal(err)
		}
		cam, err := core.OrbitCamera(src, job.Width, job.Height, *angle)
		if err != nil {
			t.Fatal(err)
		}
		job.Camera = dist.CameraFrom(cam)
	}
	job.BricksPerGPU = 8
	job.Partition = &dist.PartitionSpec{Scheme: "interleave", Parts: 2}
	return job
}

// TestDistributedGoldenNonConvex is the acceptance battery for the
// non-convex partition path: the adversarial interleaved goldens,
// rendered through the cluster in both topologies — classic and
// distributed reduce — must reproduce the committed single-process
// digests bit for bit. Rays re-enter units here, so whole fragment
// *lists* ride the cf2 codec and the exchange; one moved bit anywhere
// in that path fails this test.
func TestDistributedGoldenNonConvex(t *testing.T) {
	want := committedGoldens(t)
	for _, mode := range []struct {
		name       string
		distReduce bool
	}{
		{"classic", false},
		{"reduce", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			addrs := startGoldenWorkers(t, 3, nil)
			coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
				Nodes: addrs, DistReduce: mode.distReduce,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := coord.Render(context.Background(), goldenPartitionJob(t, nil))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Image.Digest(); got != want[goldenPartitionBase] {
				t.Errorf("%s: digest %s != committed %s", goldenPartitionBase, got, want[goldenPartitionBase])
			}
			for _, angle := range goldenPartitionOrbitAngles {
				angle := angle
				res, _, err := coord.Render(context.Background(), goldenPartitionJob(t, &angle))
				if err != nil {
					t.Fatalf("orbit %v: %v", angle, err)
				}
				name := goldenPartitionName(angle)
				if got := res.Image.Digest(); got != want[name] {
					t.Errorf("%s: digest %s != committed %s", name, got, want[name])
				}
			}
		})
	}
}

// TestDistributedGoldenNonConvexWorkerKilled: the adversarial partition
// frames with the first-contacted worker crashing mid-job and staying
// dead — retries must land whole unit lists elsewhere and the digests
// must not move.
func TestDistributedGoldenNonConvexWorkerKilled(t *testing.T) {
	want := committedGoldens(t)
	var deadNode atomic.Int64
	addrs := startGoldenWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		node := int64(i + 1)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if deadNode.CompareAndSwap(0, node) || deadNode.Load() == node {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := coord.Render(context.Background(), goldenPartitionJob(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Image.Digest(); got != want[goldenPartitionBase] {
		t.Errorf("%s with killed worker: digest %s != committed %s",
			goldenPartitionBase, got, want[goldenPartitionBase])
	}
	if deadNode.Load() == 0 {
		t.Error("no worker was ever contacted — fault not exercised")
	}
	if st := coord.Stats(); st.NodeDowns < 1 {
		t.Errorf("worker death not recorded: %+v", st)
	}
}

// TestDistributedGoldenImages: every committed golden configuration,
// rendered over 2 and 3 worker nodes, digests equal to testdata/golden.json.
func TestDistributedGoldenImages(t *testing.T) {
	want := committedGoldens(t)
	for i, c := range goldenConfigs {
		job := goldenJob(t, i)
		for _, workers := range []int{2, 3} {
			addrs := startGoldenWorkers(t, workers, nil)
			coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Nodes: addrs})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := coord.Render(context.Background(), job)
			if err != nil {
				t.Fatalf("%s over %d workers: %v", c.name, workers, err)
			}
			if got := res.Image.Digest(); got != want[c.name] {
				t.Errorf("%s over %d workers: digest %s != committed %s",
					c.name, workers, got, want[c.name])
			}
		}
	}
}

// TestDistributedGoldenOrbit renders the committed orbit views through
// the cluster — the same frames the CI smoke requests from a live
// 3-worker gvmrd deployment.
func TestDistributedGoldenOrbit(t *testing.T) {
	want := committedGoldens(t)
	addrs := startGoldenWorkers(t, 3, nil)
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.New("skull", dataset.PaperDims("skull", 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, angle := range goldenOrbitAngles {
		cam, err := core.OrbitCamera(src, 64, 64, angle)
		if err != nil {
			t.Fatal(err)
		}
		job := dist.JobSpec{
			Dataset: "skull", Edge: 32, Width: 64, Height: 64,
			GPUs: 2, Shading: true,
			StepVoxels: 1, TerminationAlpha: 0.98,
			Camera: dist.CameraFrom(cam),
		}
		res, _, err := coord.Render(context.Background(), job)
		if err != nil {
			t.Fatalf("orbit %v: %v", angle, err)
		}
		name := goldenOrbitName(angle)
		if got := res.Image.Digest(); got != want[name] {
			t.Errorf("%s distributed: digest %s != committed %s", name, got, want[name])
		}
	}
}

// TestDistributedReduceGoldenOrbit renders the committed orbit views
// with the reduce phase on the worker fleet: mappers exchange pixel
// ranges peer-to-peer and the coordinator assembles near-final ranges —
// the digests must still equal testdata/golden.json bit for bit, with
// every frame actually carried by the exchange (no silent fallback).
func TestDistributedReduceGoldenOrbit(t *testing.T) {
	want := committedGoldens(t)
	addrs := startGoldenWorkers(t, 3, nil)
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Nodes: addrs, DistReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.New("skull", dataset.PaperDims("skull", 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, angle := range goldenOrbitAngles {
		cam, err := core.OrbitCamera(src, 64, 64, angle)
		if err != nil {
			t.Fatal(err)
		}
		job := dist.JobSpec{
			Dataset: "skull", Edge: 32, Width: 64, Height: 64,
			GPUs: 2, Shading: true,
			StepVoxels: 1, TerminationAlpha: 0.98,
			Camera: dist.CameraFrom(cam),
		}
		res, _, err := coord.Render(context.Background(), job)
		if err != nil {
			t.Fatalf("reduce orbit %v: %v", angle, err)
		}
		name := goldenOrbitName(angle)
		if got := res.Image.Digest(); got != want[name] {
			t.Errorf("%s distributed-reduce: digest %s != committed %s", name, got, want[name])
		}
	}
	st := coord.Stats()
	if st.ReduceJobs != int64(len(goldenOrbitAngles)) || st.ReduceFallbacks != 0 {
		t.Errorf("exchange did not carry every frame: %+v", st)
	}
}

// TestDistributedReduceGoldenPeerKilled kills one worker's exchange
// endpoints (reduce push and collect) while leaving its map endpoint
// alive — a peer dying mid-exchange. Every committed golden config must
// still digest exactly: the coordinator abandons each exchange and falls
// back to the classic coordinator-local composite.
func TestDistributedReduceGoldenPeerKilled(t *testing.T) {
	want := committedGoldens(t)
	var killed atomic.Int64
	addrs := startGoldenWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		// Wrap the whole mux surface: map passes through, exchange dies.
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == dist.ReducePath || r.URL.Path == dist.CollectPath {
				killed.Add(1)
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Nodes: addrs, DistReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range goldenConfigs {
		res, _, err := coord.Render(context.Background(), goldenJob(t, i))
		if err != nil {
			t.Fatalf("%s with killed exchange peer: %v", c.name, err)
		}
		if got := res.Image.Digest(); got != want[c.name] {
			t.Errorf("%s with killed exchange peer: digest %s != committed %s",
				c.name, got, want[c.name])
		}
	}
	st := coord.Stats()
	if killed.Load() >= 1 && st.ReduceFallbacks < 1 {
		t.Errorf("peer death did not register as a fallback: %+v", st)
	}
}

// TestDistributedGoldenUnderFaults: mid-job, one worker dies and another
// worker's response is silently corrupted — the cluster must still
// reproduce the committed digests exactly. The faults attach to whichever
// nodes the (port-dependent) placement actually uses: the first node
// contacted dies, and the first intact payload from a surviving node gets
// a bit flipped, so both fault paths are exercised on every run. (The
// straggler/hedging fault is covered deterministically by the
// internal/dist suite, where placement is pinned.)
func TestDistributedGoldenUnderFaults(t *testing.T) {
	want := committedGoldens(t)
	var deadNode atomic.Int64 // 1-based index of the node that died; 0 = nobody yet
	var corrupted atomic.Bool
	addrs := startGoldenWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		node := int64(i + 1)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if deadNode.CompareAndSwap(0, node) || deadNode.Load() == node {
				// First node ever contacted: it crashes now and stays dead.
				panic(http.ErrAbortHandler)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 10 && corrupted.CompareAndSwap(false, true) {
				body[10] ^= 0x40 // bit flip; digest header left advertising the original
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	})
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range goldenConfigs {
		res, _, err := coord.Render(context.Background(), goldenJob(t, i))
		if err != nil {
			t.Fatalf("%s under faults: %v", c.name, err)
		}
		if got := res.Image.Digest(); got != want[c.name] {
			t.Errorf("%s under faults: digest %s != committed %s", c.name, got, want[c.name])
		}
	}
	if deadNode.Load() == 0 {
		t.Error("no worker was ever contacted — fault not exercised")
	}
	if !corrupted.Load() {
		t.Error("no response was corrupted — fault not exercised")
	}
	st := coord.Stats()
	if st.Retries < 2 || st.NodeDowns < 2 || st.Corrupt < 1 {
		t.Errorf("faults not recorded (want ≥2 retries, ≥2 node-downs, ≥1 corrupt): %+v", st)
	}
}
