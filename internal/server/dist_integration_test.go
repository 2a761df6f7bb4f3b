package server

import (
	"context"
	"net/http/httptest"
	"testing"
)

// startWorkerService spins a full gvmrd-style service (its Handler mounts
// /map) as an HTTP worker node and returns its base URL plus the service
// for stats inspection.
func startWorkerService(t *testing.T, gpus int) (string, *Service) {
	t.Helper()
	svc, err := New(Config{GPUs: gpus, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Close(context.Background()) })
	return srv.URL, svc
}

// TestCoordinatorServiceMatchesLocal: a service configured with remote
// workers serves byte-identical frames to a purely local service, and the
// work demonstrably crossed the process boundary (worker map counters).
func TestCoordinatorServiceMatchesLocal(t *testing.T) {
	w1, ws1 := startWorkerService(t, 1)
	w2, ws2 := startWorkerService(t, 1)

	local, err := New(Config{GPUs: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close(context.Background())
	coord, err := New(Config{GPUs: 2, Workers: 2, WorkerAddrs: []string{w1, w2}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(context.Background())

	req := Request{Dataset: "skull", Edge: 24, Width: 48, Height: 48, Orbit: 33, GPUs: 2, Shading: true}
	// The lowest step a client can spell: ?step=0.01 parses to
	// float32(0.01), which the workers must accept as the service does.
	fine := req
	fine.StepVoxels = float32(0.01)
	for _, r := range []Request{req, fine} {
		fLocal, _, err := local.Render(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		fDist, via, err := coord.Render(context.Background(), r)
		if err != nil {
			t.Fatalf("step %v: %v", r.StepVoxels, err)
		}
		if via != ViaRender {
			t.Errorf("step %v: first distributed render served via %q", r.StepVoxels, via)
		}
		if fDist.Digest != fLocal.Digest {
			t.Errorf("step %v: distributed digest %s != local %s", r.StepVoxels, fDist.Digest, fLocal.Digest)
		}
	}

	mapJobs := ws1.Stats().MapJobs + ws2.Stats().MapJobs
	if mapJobs < 1 {
		t.Errorf("no map batches reached the workers (w1 %d, w2 %d)",
			ws1.Stats().MapJobs, ws2.Stats().MapJobs)
	}
	st := coord.Stats()
	if st.WorkerNodes != 2 || st.Dist == nil || st.Dist.Jobs < 1 {
		t.Errorf("coordinator stats missing dist section: %+v", st)
	}

	// Second request: served from the coordinator's frame cache, no new
	// worker traffic needed.
	if _, via, err := coord.Render(context.Background(), req); err != nil || via != ViaCache {
		t.Errorf("repeat request served via %q, err %v", via, err)
	}
}

// TestDistReduceServiceMatchesLocal: a coordinator service running the
// reduce phase on its worker fleet serves byte-identical frames to a
// purely local service, and the exchange demonstrably happened (reduce
// jobs on the coordinator, pushes and collects on the workers).
func TestDistReduceServiceMatchesLocal(t *testing.T) {
	w1, ws1 := startWorkerService(t, 1)
	w2, ws2 := startWorkerService(t, 1)

	local, err := New(Config{GPUs: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close(context.Background())
	coord, err := New(Config{GPUs: 2, Workers: 2, WorkerAddrs: []string{w1, w2}, DistReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(context.Background())

	req := Request{Dataset: "skull", Edge: 24, Width: 48, Height: 48, Orbit: 57, GPUs: 2, Shading: true}
	fLocal, _, err := local.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fDist, _, err := coord.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if fDist.Digest != fLocal.Digest {
		t.Errorf("distributed-reduce digest %s != local %s", fDist.Digest, fLocal.Digest)
	}

	st := coord.Stats()
	if st.Dist == nil || st.Dist.ReduceJobs < 1 || st.Dist.ReduceFallbacks != 0 {
		t.Errorf("exchange did not carry the frame: %+v", st.Dist)
	}
	var pushes, collects int64
	for _, ws := range []*Service{ws1, ws2} {
		if ex := ws.Stats().Exchange; ex != nil {
			pushes += ex.Pushes
			collects += ex.Collects
		}
	}
	if pushes < 1 || collects != 2 {
		t.Errorf("worker exchange counters implausible: %d pushes, %d collects", pushes, collects)
	}
}
