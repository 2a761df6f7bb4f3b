package dist

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/resilience"
	"gvmr/internal/volume/dataset"
)

// A propagated deadline decides only whether a /map batch runs, never how:
// a batch is one core.MapBricks call with or without X-Gvmr-Deadline, so
// its stripes and charges are the same, and a budget spent before
// mapping is a 504 with no map work.

// TestDeadlineLeavesBatchUnchanged: a 4-unit batch of an 8-GPU skull job
// on a 1-GPU worker returns the same payload bytes and the same
// X-Gvmr-Unit-Charges with and without a one-minute deadline.
func TestDeadlineLeavesBatchUnchanged(t *testing.T) {
	job := testJob(t, dataset.Skull, 64, 96, 8, 30, true)
	opt, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.AC(1)
	grid, err := core.PlanGrid(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := NewWorker(WorkerConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	body := mustJSON(t, MapRequest{Job: job, Bricks: []int{0, 1, 2, 3}, GridCounts: grid.Counts})
	serve := func(deadline string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, MapPath, bytes.NewBufferString(body))
		if deadline != "" {
			req.Header.Set(resilience.HeaderDeadline, deadline)
		}
		rec := httptest.NewRecorder()
		wk.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("deadline %q: HTTP %d: %s", deadline, rec.Code, rec.Body)
		}
		return rec
	}
	plain, bounded := serve(""), serve("60000")
	if !bytes.Equal(plain.Body.Bytes(), bounded.Body.Bytes()) {
		t.Errorf("payload with a deadline (%d bytes) differs from the payload without (%d bytes)",
			bounded.Body.Len(), plain.Body.Len())
	}
	if p, b := plain.Header().Get(HeaderUnitCharges), bounded.Header().Get(HeaderUnitCharges); p != b {
		t.Errorf("charges with a deadline %s, without %s", b, p)
	}
}

// TestDeadlineLeavesVirtualTimeUnchanged: Coordinator.Render under a
// context deadline returns the bits and the virtual runtime of the same
// frame rendered without one.
func TestDeadlineLeavesVirtualTimeUnchanged(t *testing.T) {
	coord := newTestCoordinator(t, startWorkers(t, 2, nil), nil)
	job := testJob(t, dataset.Skull, 64, 96, 8, 30, true)
	plain, _, err := coord.Render(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	bounded, _, err := coord.Render(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Image.Digest() != plain.Image.Digest() {
		t.Error("frame under a deadline differs from the frame without")
	}
	if bounded.Runtime != plain.Runtime {
		t.Errorf("virtual runtime under a deadline %v, without %v", bounded.Runtime, plain.Runtime)
	}
}

// TestWorkerRefusesSpentDeadline: a batch whose deadline passed before
// mapping is a deadlineError, served as 504 and counted as a deadline
// abort, and it makes no call through the mapBricks seam.
func TestWorkerRefusesSpentDeadline(t *testing.T) {
	job := testJob(t, dataset.Skull, 24, 48, 2, 0, false)
	opt, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.AC(1)
	grid, err := core.PlanGrid(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	metrics := &resilience.Metrics{}
	wk, err := NewWorker(WorkerConfig{Spec: spec, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	wk.mapBricks = func(spec cluster.Spec, opt core.Options, ids []int, devWorkers int) (*core.MapResult, error) {
		calls++
		return core.MapBricks(spec, opt, ids, devWorkers)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	mapReq := MapRequest{Job: job, Bricks: []int{0, 1}, GridCounts: grid.Counts}

	var dlErr deadlineError
	if _, err := wk.run(ctx, mapReq); !errors.As(err, &dlErr) {
		t.Errorf("spent deadline: error %v, want a deadlineError", err)
	}
	req := httptest.NewRequest(http.MethodPost, MapPath, bytes.NewBufferString(mustJSON(t, mapReq))).WithContext(ctx)
	req.Header.Set(resilience.HeaderDeadline, "60000")
	rec := httptest.NewRecorder()
	wk.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("spent deadline: HTTP %d, want 504 (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if n := metrics.Snapshot().DeadlineAborts; n != 1 {
		t.Errorf("deadline aborts = %d, want 1", n)
	}
	if calls != 0 {
		t.Errorf("a spent deadline made %d map calls, want 0", calls)
	}
	if _, err := wk.run(context.Background(), mapReq); err != nil || calls != 1 {
		t.Errorf("without a deadline: %v after %d map calls, want one call", err, calls)
	}
}
