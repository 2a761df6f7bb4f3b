package membership

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// AgentState is the worker-side view of its own membership.
type AgentState string

// Agent states.
const (
	// AgentJoining: registration has not succeeded yet (still retrying).
	AgentJoining AgentState = "joining"
	// AgentRegistered: lease live, heartbeats flowing.
	AgentRegistered AgentState = "registered"
	// AgentDraining: the registry marked us draining (self-drain or
	// operator); finish in-flight work, accept nothing new.
	AgentDraining AgentState = "draining"
	// AgentLost: heartbeats are failing or were rejected; the agent is
	// re-registering. Readiness probes should report not-ready.
	AgentLost AgentState = "lost"
	// AgentStopped: Stop was called; the loop has exited.
	AgentStopped AgentState = "stopped"
)

// AgentConfig wires a worker to its coordinator.
type AgentConfig struct {
	// Coordinator is the registry's base address (host:port or URL).
	Coordinator string
	// Advertise is the address the coordinator should reach this worker
	// at — what goes into the registry and onto the placement ring.
	Advertise string
	// RetryEvery paces registration retries (default 1s).
	RetryEvery time.Duration
	// Client is the control-plane HTTP client (default 5s timeout).
	Client *http.Client
	// OnState, when non-nil, is called on every state transition (from
	// the agent's loop goroutine; keep it fast).
	OnState func(AgentState)
	// Logf, when non-nil, receives membership events.
	Logf func(format string, v ...any)
}

// Agent maintains a worker's registration: it registers (retrying until
// it succeeds), heartbeats on the lease interval, re-registers after an
// eviction, and exposes Drain/Deregister for graceful shutdown.
type Agent struct {
	cfg      AgentConfig
	coord    string // normalized coordinator base URL
	self     string // normalized advertise address
	instance string

	mu       sync.Mutex
	state    AgentState
	interval time.Duration

	stop chan struct{}
	done chan struct{}
}

// StartAgent validates the config and starts the register+heartbeat loop.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	coord, err := NormalizeAddr(cfg.Coordinator)
	if err != nil {
		return nil, fmt.Errorf("membership: coordinator: %w", err)
	}
	self, err := NormalizeAddr(cfg.Advertise)
	if err != nil {
		return nil, fmt.Errorf("membership: advertise: %w", err)
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return nil, fmt.Errorf("membership: instance id: %w", err)
	}
	a := &Agent{
		cfg: cfg, coord: coord, self: self,
		instance: hex.EncodeToString(buf[:]),
		state:    AgentJoining,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go a.loop()
	return a, nil
}

// State returns the agent's current membership state.
func (a *Agent) State() AgentState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Registered reports whether the worker currently holds a live lease
// (registered or draining).
func (a *Agent) Registered() bool {
	s := a.State()
	return s == AgentRegistered || s == AgentDraining
}

// Instance returns this incarnation's unique ID.
func (a *Agent) Instance() string { return a.instance }

func (a *Agent) setState(s AgentState) {
	a.mu.Lock()
	changed := a.state != s
	a.state = s
	a.mu.Unlock()
	if changed {
		a.logf("membership: %s", s)
		if a.cfg.OnState != nil {
			a.cfg.OnState(s)
		}
	}
}

func (a *Agent) logf(format string, v ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, v...)
	}
}

// post sends one JSON control-plane request and decodes the response.
func (a *Agent) post(ctx context.Context, path string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.coord+path, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("bad response body: %v", err)
		}
	}
	return resp.StatusCode, nil
}

// register performs one registration attempt and adopts the lease terms.
func (a *Agent) register(ctx context.Context) error {
	var resp RegisterResponse
	_, err := a.post(ctx, RegisterPath, RegisterRequest{Addr: a.self, Instance: a.instance}, &resp)
	if err != nil {
		return err
	}
	// The term is bounded before it is multiplied: an out-of-range
	// answer would otherwise wrap to a period that floods the registry.
	iv := 2 * time.Second
	if ms := resp.HeartbeatMillis; ms > 0 && ms <= 3_600_000 {
		iv = time.Duration(ms) * time.Millisecond
	}
	a.mu.Lock()
	a.interval = iv
	a.mu.Unlock()
	return nil
}

// beat sends one heartbeat; the returned state is the registry's view.
func (a *Agent) beat(ctx context.Context) (State, int, error) {
	var resp HeartbeatResponse
	code, err := a.post(ctx, HeartbeatPath, HeartbeatRequest{Addr: a.self, Instance: a.instance}, &resp)
	return resp.State, code, err
}

// loop is the agent lifecycle: register (retrying), then heartbeat on
// the lease interval; a rejected beat (evicted, replaced) falls back to
// registration. Exits on Stop.
func (a *Agent) loop() {
	defer close(a.done)
	for {
		// Register, retrying until success or Stop.
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := a.register(ctx)
			cancel()
			if err == nil {
				a.setState(AgentRegistered)
				break
			}
			a.logf("membership: register with %s failed: %v", a.coord, err)
			select {
			case <-time.After(a.cfg.RetryEvery):
			case <-a.stop:
				a.setState(AgentStopped)
				return
			}
		}
		// Beat until rejected or stopped.
		for {
			a.mu.Lock()
			iv := a.interval
			a.mu.Unlock()
			select {
			case <-time.After(iv):
			case <-a.stop:
				a.setState(AgentStopped)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			state, code, err := a.beat(ctx)
			cancel()
			switch {
			case err == nil && state == StateDraining:
				a.setState(AgentDraining)
			case err == nil:
				a.setState(AgentRegistered)
			case code == http.StatusNotFound || code == http.StatusConflict:
				// Evicted or replaced: re-register as this incarnation.
				a.logf("membership: lease lost (%v); re-registering", err)
				a.setState(AgentLost)
			default:
				// Transient network/coordinator failure: keep beating —
				// the lease has miss headroom — but surface not-ready.
				a.logf("membership: heartbeat failed: %v", err)
				a.setState(AgentLost)
				continue
			}
			if a.State() == AgentLost {
				break // fall back to registration
			}
		}
	}
}

// Drain asks the registry to mark this worker draining. When it returns
// nil the drain is acknowledged: the coordinator will send nothing new,
// and the caller can finish in-flight work then Deregister.
func (a *Agent) Drain(ctx context.Context) error {
	_, err := a.post(ctx, DrainPath, DrainRequest{Addr: a.self}, nil)
	if err == nil {
		a.setState(AgentDraining)
	}
	return err
}

// Deregister removes this worker from the registry (graceful leave).
func (a *Agent) Deregister(ctx context.Context) error {
	_, err := a.post(ctx, DeregisterPath, DeregisterRequest{Addr: a.self, Instance: a.instance}, nil)
	return err
}

// Stop ends the agent loop without touching the registry (the lease will
// expire on its own unless Deregister ran first).
func (a *Agent) Stop() {
	a.mu.Lock()
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	a.mu.Unlock()
	<-a.done
}
