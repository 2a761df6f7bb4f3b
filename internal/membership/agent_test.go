package membership

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startTestCoordinator mounts a fast-lease registry on an httptest server.
func startTestCoordinator(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	reg := New(Config{HeartbeatInterval: 20 * time.Millisecond, MissLimit: 3})
	mux := http.NewServeMux()
	reg.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return reg, srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
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

func TestAgentRegistersAndBeats(t *testing.T) {
	reg, srv := startTestCoordinator(t)
	var beats atomic.Int64
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == HeartbeatPath {
			beats.Add(1)
		}
		srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer counted.Close()
	var mu sync.Mutex
	var states []AgentState
	a, err := StartAgent(AgentConfig{
		Coordinator: counted.URL,
		Advertise:   "127.0.0.1:9001",
		RetryEvery:  10 * time.Millisecond,
		OnState: func(s AgentState) {
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()

	waitFor(t, "registration", a.Registered)
	snap := reg.Snapshot()
	if len(snap.Members) != 1 {
		t.Fatalf("members = %+v, want the agent", snap.Members)
	}
	m := snap.Members[0]
	if m.Addr != "http://127.0.0.1:9001" || m.Instance != a.Instance() {
		t.Fatalf("member = %+v, want the advertised identity", m)
	}
	// Heartbeats flow on the server-assigned interval.
	waitFor(t, "heartbeats", func() bool { return beats.Load() >= 2 })
	mu.Lock()
	sawRegistered := len(states) > 0 && states[0] == AgentRegistered
	mu.Unlock()
	if !sawRegistered {
		t.Fatalf("state transitions = %v, want registered first", states)
	}
}

func TestAgentReRegistersAfterEviction(t *testing.T) {
	reg, srv := startTestCoordinator(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: srv.URL,
		Advertise:   "127.0.0.1:9001",
		RetryEvery:  10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	waitFor(t, "registration", a.Registered)

	// Server-side removal (operator or eviction): the agent's next beat
	// 404s and it re-registers on its own.
	if err := reg.Deregister("127.0.0.1:9001", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-registration", func() bool {
		return len(reg.Snapshot().Members) == 1 && reg.Stats().Rejoins >= 1
	})
	if st := reg.Stats(); st.RejectedBeats < 1 {
		t.Fatalf("rejected beats = %d, want ≥1 (the 404 that triggered re-register)", st.RejectedBeats)
	}
}

func TestAgentDrainAndDeregister(t *testing.T) {
	reg, srv := startTestCoordinator(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: srv.URL,
		Advertise:   "127.0.0.1:9001",
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	waitFor(t, "registration", a.Registered)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if a.State() != AgentDraining {
		t.Fatalf("state after drain = %q, want draining", a.State())
	}
	snap := reg.Snapshot()
	if got := snap.Eligible(); len(got) != 0 {
		t.Fatalf("eligible after drain ack = %v, want none", got)
	}
	// Heartbeats keep confirming the draining state rather than flipping
	// the agent back to registered.
	time.Sleep(60 * time.Millisecond)
	if a.State() != AgentDraining {
		t.Fatalf("state decayed to %q while draining", a.State())
	}

	if err := a.Deregister(ctx); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if n := len(reg.Snapshot().Members); n != 0 {
		t.Fatalf("members after deregister = %d, want 0", n)
	}
	a.Stop()
	if a.State() != AgentStopped {
		t.Fatalf("state after Stop = %q", a.State())
	}
}

func TestAgentRetriesUntilCoordinatorAppears(t *testing.T) {
	// Reserve an address with no listener: registration fails, the agent
	// stays joining and keeps retrying, then Stop cleanly ends it.
	a, err := StartAgent(AgentConfig{
		Coordinator: "127.0.0.1:1", // reserved port, nothing listens
		Advertise:   "127.0.0.1:9001",
		RetryEvery:  10 * time.Millisecond,
		Client:      &http.Client{Timeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if a.Registered() {
		t.Fatal("agent claims registration with no coordinator")
	}
	a.Stop()
	if a.State() != AgentStopped {
		t.Fatalf("state after Stop = %q", a.State())
	}
}

func TestStartAgentValidatesConfig(t *testing.T) {
	if _, err := StartAgent(AgentConfig{Coordinator: "", Advertise: "127.0.0.1:9001"}); err == nil {
		t.Error("empty coordinator accepted")
	}
	if _, err := StartAgent(AgentConfig{Coordinator: "127.0.0.1:8080", Advertise: "bad addr"}); err == nil {
		t.Error("bad advertise accepted")
	}
}

func TestHTTPEndpointsRejectHostileTraffic(t *testing.T) {
	_, srv := startTestCoordinator(t)
	client := srv.Client()

	// GET is not a control-plane verb.
	resp, err := client.Get(srv.URL + RegisterPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /register = %d, want 405", resp.StatusCode)
	}
	// Unknown-member drain is a 404.
	resp, err = client.Post(srv.URL+DrainPath, "application/json",
		strings.NewReader(`{"addr":"127.0.0.1:9999"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown = %d, want 404", resp.StatusCode)
	}
	// Malformed JSON is a 400.
	resp, err = client.Post(srv.URL+RegisterPath, "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad register body = %d, want 400", resp.StatusCode)
	}
	// A heartbeat that still reports load is a body from another build: 400.
	resp, err = client.Post(srv.URL+HeartbeatPath, "application/json",
		strings.NewReader(`{"addr":"127.0.0.1:9001","instance":"a","load":{"in_flight":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("heartbeat with load = %d, want 400", resp.StatusCode)
	}
}

// TestAgentRejectsHostileLeaseTerm: a /register answer whose heartbeat
// term overflows when converted to a Duration must not become the beat
// period; the agent keeps its 2s default and sends no beat in 200ms.
func TestAgentRejectsHostileLeaseTerm(t *testing.T) {
	var mu sync.Mutex
	beats := 0
	mux := http.NewServeMux()
	mux.HandleFunc(RegisterPath, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"alive","heartbeat_millis":18446744073710,"miss_limit":3}`))
	})
	mux.HandleFunc(HeartbeatPath, func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		beats++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"alive"}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	a, err := StartAgent(AgentConfig{Coordinator: srv.URL, Advertise: "127.0.0.1:9007", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	waitFor(t, "registration", a.Registered)
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if beats != 0 {
		t.Fatalf("%d heartbeats in 200ms after a hostile lease term, want 0 (2s default)", beats)
	}
}
