package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gvmr/internal/core"
	"gvmr/internal/dist"
	"gvmr/internal/resilience"
)

// Overload-policy tests for the service layer: shed ordering by priority
// class, the brownout gate (degraded frames only ever exist behind
// AllowDegraded, and never enter the cache), and the Retry-After /
// deadline / degraded HTTP surface.

// TestAdmitShedsByPriority: with cap(queue)=4 (2 workers + 2 waiters),
// speculative work sheds at half full, batch at three quarters, and only
// interactive may fill the queue — lowest class first, each shed counted
// under its own class.
func TestAdmitShedsByPriority(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2, Workers: 2, MaxQueue: 2})
	// Fill the queue halfway (as two admitted-and-waiting renders would).
	s.queue <- struct{}{}
	s.queue <- struct{}{}

	if _, err := s.admit(context.Background(), resilience.Speculative); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("speculative at half full: %v, want ErrOverloaded", err)
	}
	rel1, err := s.admit(context.Background(), resilience.Batch)
	if err != nil {
		t.Fatalf("batch below three quarters: %v", err)
	}
	if _, err := s.admit(context.Background(), resilience.Batch); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch at three quarters: %v, want ErrOverloaded", err)
	}
	rel2, err := s.admit(context.Background(), resilience.Interactive)
	if err != nil {
		t.Fatalf("interactive below full: %v", err)
	}
	if _, err := s.admit(context.Background(), resilience.Interactive); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("interactive at full: %v, want ErrOverloaded", err)
	}

	snap := s.res.Snapshot()
	want := map[string]int64{"speculative": 1, "batch": 1, "interactive": 1}
	for class, n := range want {
		if snap.ShedsByClass[class] != n {
			t.Errorf("sheds[%s] = %d, want %d (%+v)", class, snap.ShedsByClass[class], n, snap.ShedsByClass)
		}
	}
	rel1()
	rel2()
	<-s.queue
	<-s.queue
}

// wedgedWorker is a /map endpoint that never answers: it parks until the
// coordinator gives up (deadline) and the client connection drops.
func wedgedWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: only then does the server's background
		// read run, which is what delivers the client's deadline
		// disconnect as a context cancellation here.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestBrownoutUnreachableWithoutFlag: under a wedged fleet and a missed
// deadline, a service WITHOUT AllowDegraded returns the deadline error —
// no frame, no degraded render, nothing cached. The brownout path must
// be provably dead when the flag is off.
func TestBrownoutUnreachableWithoutFlag(t *testing.T) {
	s := newTestService(t, Config{
		GPUs: 2, Workers: 1,
		WorkerAddrs:     []string{wedgedWorker(t)},
		DefaultDeadline: 100 * time.Millisecond,
	})
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	_, _, err := s.Render(context.Background(), req)
	if err == nil {
		t.Fatal("deadline miss with flag off returned a frame")
	}
	if !errors.Is(err, dist.ErrDeadline) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v is not deadline-class", err)
	}
	snap := s.res.Snapshot()
	if snap.DegradedFrames != 0 {
		t.Errorf("flag off but %d degraded frames rendered", snap.DegradedFrames)
	}
	nReq := req
	if _, err := nReq.normalize(s); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.Get(nReq); ok {
		t.Error("failed render left a cached frame")
	}
}

// TestBrownoutServesDegradedUncached: the same wedged fleet with
// AllowDegraded set serves a coarser local frame, marks it Degraded,
// counts it, and does NOT commit it to the cache — the full-quality key
// stays honest for the next healthy render.
func TestBrownoutServesDegradedUncached(t *testing.T) {
	s := newTestService(t, Config{
		GPUs: 2, Workers: 1,
		WorkerAddrs:     []string{wedgedWorker(t)},
		DefaultDeadline: 100 * time.Millisecond,
		AllowDegraded:   true,
	})
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	f, via, err := s.Render(context.Background(), req)
	if err != nil {
		t.Fatalf("brownout render: %v", err)
	}
	if !f.Degraded {
		t.Error("brownout frame not marked Degraded")
	}
	if via != ViaRender {
		t.Errorf("brownout served via %q, want render", via)
	}
	snap := s.res.Snapshot()
	if snap.DegradedFrames != 1 {
		t.Errorf("degraded frames = %d, want 1", snap.DegradedFrames)
	}
	nReq := req
	if _, err := nReq.normalize(s); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.Get(nReq); ok {
		t.Error("degraded frame was committed to the cache")
	}
}

// TestRenderHTTPDeadlineSurface: the HTTP layer's half of the deadline
// contract — a missed deadline is 504 without the flag and a degraded
// 200 (X-Gvmr-Degraded: 1) with it; malformed deadline headers and
// priorities are 400s, not defaults.
func TestRenderHTTPDeadlineSurface(t *testing.T) {
	get := func(s *Service, deadline string) *http.Response {
		t.Helper()
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/render?dataset=skull&edge=16&size=32", nil)
		if deadline != "" {
			req.Header.Set(resilience.HeaderDeadline, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	strict := newTestService(t, Config{GPUs: 2, Workers: 1, WorkerAddrs: []string{wedgedWorker(t)}})
	if resp := get(strict, "100"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("deadline miss: HTTP %d, want 504", resp.StatusCode)
	}
	for _, bad := range []string{"bogus", "9223372036855" /* overflows to a negative budget */} {
		if resp := get(strict, bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad deadline header %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}

	soft := newTestService(t, Config{
		GPUs: 2, Workers: 1,
		WorkerAddrs: []string{wedgedWorker(t)}, AllowDegraded: true,
	})
	resp := get(soft, "100")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("brownout: HTTP %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get(resilience.HeaderDegraded) != "1" {
		t.Error("brownout response missing X-Gvmr-Degraded: 1")
	}

	srv := httptest.NewServer(soft.Handler())
	defer srv.Close()
	badPri, err := http.Get(srv.URL + "/render?dataset=skull&edge=16&size=32&priority=urgent")
	if err != nil {
		t.Fatal(err)
	}
	badPri.Body.Close()
	if badPri.StatusCode != http.StatusBadRequest {
		t.Errorf("bad priority: HTTP %d, want 400", badPri.StatusCode)
	}
}

// TestRetryAfterOnOverloadAndDrain: every 429 and 503 the admission and
// drain paths emit carries Retry-After, so well-behaved clients back off
// instead of hammering.
func TestRetryAfterOnOverloadAndDrain(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2, Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A full queue sheds renders and map batches alike.
	for len(s.queue) < cap(s.queue) {
		s.queue <- struct{}{}
	}
	for _, post := range []bool{false, true} {
		var resp *http.Response
		var err error
		if post {
			resp, err = http.Post(srv.URL+dist.MapPath, "application/json", nil)
		} else {
			resp, err = http.Get(srv.URL + "/render?dataset=skull&edge=16&size=32")
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("overloaded (map %v): HTTP %d, Retry-After %q; want 429 with Retry-After",
				post, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	for len(s.queue) > 0 {
		<-s.queue
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/render?dataset=skull&edge=16&size=32")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining render: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}

	mresp, err := http.Post(srv.URL+dist.MapPath, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining map: HTTP %d, want 503", mresp.StatusCode)
	}
	if mresp.Header.Get("Retry-After") == "" {
		t.Error("draining /map 503 missing Retry-After")
	}
}

// mapSender returns a function that posts one single-brick skull /map
// batch to s, under ctx and with a deadline header unless it is empty.
func mapSender(t *testing.T, s *Service) func(ctx context.Context, deadline string) *httptest.ResponseRecorder {
	t.Helper()
	req := Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32}
	job, err := req.normalize(s)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := core.PlanGrid(job.PlanSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(dist.MapRequest{Job: job, Bricks: []int{0}, GridCounts: grid.Counts})
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, deadline string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, dist.MapPath, bytes.NewReader(body)).WithContext(ctx)
		if deadline != "" {
			r.Header.Set(resilience.HeaderDeadline, deadline)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		return rec
	}
}

// TestMapDeadlineSpentInQueue: a /map batch's deadline runs from its
// arrival. A batch that spends its budget waiting for a render slot gets
// its 504 as the budget runs out, while the slot is still held, returns
// its queue token and counts a deadline abort, not a shed.
func TestMapDeadlineSpentInQueue(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2, Workers: 1})
	send := mapSender(t, s)

	s.sem <- struct{}{} // the one render slot is busy
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- send(context.Background(), "1") }()
	select {
	case rec := <-done:
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("budget spent in the queue: HTTP %d, want 504", rec.Code)
		}
	case <-time.After(10 * time.Second):
		<-s.sem
		<-done
		t.Fatal("a batch with a 1 ms budget was still queued after 10 s: it waited for the slot")
	}
	if n := len(s.queue); n != 0 {
		t.Errorf("the timed-out batch left %d queue tokens held", n)
	}
	snap := s.res.Snapshot()
	if snap.DeadlineAborts != 1 {
		t.Errorf("deadline aborts = %d, want 1", snap.DeadlineAborts)
	}
	for class, n := range snap.ShedsByClass {
		if n != 0 {
			t.Errorf("sheds[%s] = %d, want 0: a spent deadline is not a shed", class, n)
		}
	}
	<-s.sem
	if rec := send(context.Background(), "60000"); rec.Code != http.StatusOK {
		t.Errorf("budget left: HTTP %d, want 200 (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
}

// TestMapHangUpLeavesQueue: a /map batch whose coordinator hangs up while
// it waits for a render slot returns its queue token before the slot
// frees, and no map work runs for it.
func TestMapHangUpLeavesQueue(t *testing.T) {
	s := newTestService(t, Config{GPUs: 2, Workers: 1})
	send := mapSender(t, s)

	s.sem <- struct{}{} // the one render slot is busy
	ctx, hangUp := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- send(ctx, "") }()
	waitFor(t, "the batch to queue", func() bool { return len(s.queue) == 1 })
	hangUp()
	waitFor(t, "the hung-up batch to leave the queue", func() bool { return len(s.queue) == 0 })
	<-s.sem
	if rec := <-done; rec.Body.Len() != 0 {
		t.Errorf("a hung-up batch was answered: HTTP %d %q", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	s.mu.Lock()
	mapJobs := s.mapJobs
	s.mu.Unlock()
	if mapJobs != 0 {
		t.Errorf("%d map jobs ran for a batch whose coordinator hung up", mapJobs)
	}
}
