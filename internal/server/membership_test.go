package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gvmr/internal/membership"
)

// waitUntil polls cond for up to 5s — membership flows (register, beat,
// drain) run on real goroutines here, full HTTP loop included.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startJoiningWorker runs a worker service plus a membership agent that
// joins it to the given coordinator, mirroring what cmd/gvmrd -join does.
func startJoiningWorker(t *testing.T, coordURL string) (*Service, *membership.Agent) {
	t.Helper()
	svc, err := New(Config{GPUs: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Close(context.Background()) })
	agent, err := membership.StartAgent(membership.AgentConfig{
		Coordinator: coordURL,
		Advertise:   srv.URL,
		RetryEvery:  10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	svc.SetReadinessProbe(func() (bool, string) {
		switch agent.State() {
		case membership.AgentRegistered:
			return true, ""
		default:
			return false, "membership: " + string(agent.State())
		}
	})
	return svc, agent
}

// TestJoinBasedDistributedRender is the end-to-end membership path: a
// coordinator starts with an EMPTY fleet (-accept-joins), workers join
// over HTTP, renders fan out to them, and the bits match a local render.
func TestJoinBasedDistributedRender(t *testing.T) {
	coord, err := New(Config{GPUs: 2, Workers: 2, AcceptJoins: true,
		HeartbeatEvery: 50 * time.Millisecond, FrameCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(context.Background())
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	local, err := New(Config{GPUs: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close(context.Background())
	req := Request{Dataset: "skull", Edge: 24, Width: 48, Height: 48, Orbit: 33, GPUs: 2}
	fLocal, _, err := local.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Before any worker joins, the coordinator falls back to rendering
	// locally — same bits, counted in the stats.
	fFallback, _, err := coord.Render(context.Background(), req)
	if err != nil {
		t.Fatalf("render with empty fleet: %v", err)
	}
	if fFallback.Digest != fLocal.Digest {
		t.Errorf("fallback digest %s != local %s", fFallback.Digest, fLocal.Digest)
	}
	if st := coord.Stats(); st.LocalFallbacks != 1 {
		t.Errorf("local fallbacks = %d, want 1", st.LocalFallbacks)
	}

	// Two workers join over the live HTTP control plane.
	w1, _ := startJoiningWorker(t, coordSrv.URL)
	w2, _ := startJoiningWorker(t, coordSrv.URL)
	waitUntil(t, "both workers alive", func() bool {
		st := coord.Registry().Stats()
		return st.Alive == 2
	})

	fDist, _, err := coord.Render(context.Background(), req)
	if err != nil {
		t.Fatalf("distributed render: %v", err)
	}
	if fDist.Digest != fLocal.Digest {
		t.Errorf("distributed digest %s != local %s", fDist.Digest, fLocal.Digest)
	}
	// A worker's load is on its own /stats: the map batches reached the
	// joined workers.
	waitUntil(t, "map batches on the joined workers", func() bool {
		return w1.Stats().MapJobs+w2.Stats().MapJobs >= 1
	})
	st := coord.Stats()
	if st.Membership == nil || st.Membership.Joins != 2 || st.WorkerNodes != 2 {
		t.Errorf("membership stats = %+v", st.Membership)
	}
}

// TestWorkerDrainViaAgent: a worker that self-drains reports not-ready
// (while staying live) and stops receiving placements; the coordinator
// keeps serving identical bits on the survivor, then falls back locally
// when the whole fleet is gone.
func TestWorkerDrainViaAgent(t *testing.T) {
	coord, err := New(Config{GPUs: 2, Workers: 2, AcceptJoins: true,
		HeartbeatEvery: 50 * time.Millisecond, FrameCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(context.Background())
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	w1, a1 := startJoiningWorker(t, coordSrv.URL)
	w2, a2 := startJoiningWorker(t, coordSrv.URL)
	waitUntil(t, "both workers alive", func() bool { return coord.Registry().Stats().Alive == 2 })

	req := Request{Dataset: "skull", Edge: 24, Width: 48, Height: 48, Orbit: 10, GPUs: 2}
	if _, _, err := coord.Render(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	baseline, _, err := coord.Render(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 drains: ack means zero new placements.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	w1Jobs := w1.Stats().MapJobs
	if ok, reason := w1.Ready(); ok || reason == "" {
		t.Errorf("drained worker Ready() = %v %q, want not-ready with reason", ok, reason)
	}

	for _, orbit := range []float64{20, 30, 40} {
		r := req
		r.Orbit = orbit
		if _, _, err := coord.Render(context.Background(), r); err != nil {
			t.Fatalf("render at %v° after drain: %v", orbit, err)
		}
	}
	if got := w1.Stats().MapJobs; got != w1Jobs {
		t.Errorf("drained worker served %d new map batches after ack", got-w1Jobs)
	}
	if got := w2.Stats().MapJobs; got < 1 {
		t.Errorf("survivor served no batches")
	}
	waitUntil(t, "registry shows draining", func() bool {
		st := coord.Registry().Stats()
		return st.Draining == 1 && st.Alive == 1
	})

	// Drain the survivor too: the coordinator falls back to local render,
	// still bit-identical.
	if err := a2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	f, _, err := coord.Render(context.Background(), req)
	if err != nil {
		t.Fatalf("render with fully-drained fleet: %v", err)
	}
	if f.Digest != baseline.Digest {
		t.Errorf("fallback digest %s != distributed %s", f.Digest, baseline.Digest)
	}
	if st := coord.Stats(); st.LocalFallbacks < 1 {
		t.Errorf("local fallbacks = %d, want ≥1", st.LocalFallbacks)
	}
}

// TestMembershipHTTPSurface exercises the daemon-facing wiring: control
// plane mounted on the coordinator handler, /stats carrying membership,
// /readyz tracking agent state.
func TestMembershipHTTPSurface(t *testing.T) {
	coord, err := New(Config{GPUs: 1, Workers: 1, AcceptJoins: true,
		HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(context.Background())
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	w, agent := startJoiningWorker(t, coordSrv.URL)
	waitUntil(t, "worker registered", agent.Registered)

	// Worker /readyz flips with agent state; /healthz never does.
	wSrv := httptest.NewServer(w.Handler())
	defer wSrv.Close()
	get := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(wSrv.URL + "/readyz"); got != http.StatusOK {
		t.Errorf("registered worker /readyz = %d, want 200", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := agent.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := get(wSrv.URL + "/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("draining worker /readyz = %d, want 503", got)
	}
	if got := get(wSrv.URL + "/healthz"); got != http.StatusOK {
		t.Errorf("draining worker /healthz = %d, want 200", got)
	}

	// Deregister removes the member; the coordinator /stats reflects it.
	if err := agent.Deregister(ctx); err != nil {
		t.Fatal(err)
	}
	st := coord.Registry().Stats()
	if st.Deregisters != 1 || len(st.Members) != 0 {
		t.Errorf("registry after deregister = %+v", st)
	}
}
