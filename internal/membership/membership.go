// Package membership makes cluster membership a first-class, fault-
// tolerant subsystem: workers self-register with a coordinator's
// Registry, maintain liveness with periodic heartbeats, and leave either
// gracefully (drain, then deregister) or by lease expiry after a
// configured number of missed beats. Membership carries identity and
// leases only; a worker's load is on its own /stats.
//
// The Registry is the coordinator's authoritative view of the fleet. The
// placement layer (internal/dist) consults Registry.Snapshot at every
// placement decision: alive members are eligible for new map batches,
// draining members finish their in-flight work but receive no new
// placements, and evicted members disappear from the ring entirely. The
// Agent is the worker side: it registers, beats on the lease interval the
// registry assigns, re-registers automatically after an eviction, and
// exposes drain/deregister for graceful shutdown (cmd/gvmrd wires SIGTERM
// to exactly that sequence).
//
// Membership changes may move bricks between nodes but can never change
// the rendered image — fragment stripes are canonical per brick
// (DESIGN.md §9), so the bit-identity oracle survives churn; the
// membership chaos battery in internal/dist asserts it against the
// committed golden digests.
package membership

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a member's position in the lease state machine.
type State string

// Member states. There is no explicit "evicted" state: eviction removes
// the member from the registry (its next heartbeat is rejected with
// ErrUnknownMember, telling the agent to re-register).
const (
	// StateAlive members are eligible for new placements.
	StateAlive State = "alive"
	// StateDraining members finish in-flight work but receive no new
	// placements; the drain acknowledgment (the Drain call returning) is
	// the cut-over point.
	StateDraining State = "draining"
)

// Registry errors.
var (
	// ErrUnknownMember: the addressed member is not registered (never
	// was, was evicted, or deregistered). Agents re-register on it.
	ErrUnknownMember = errors.New("membership: unknown member")
	// ErrStaleInstance: the request carries an instance ID that an
	// earlier incarnation of the member used; a newer registration owns
	// the address now, and the stale incarnation must not refresh or
	// remove it.
	ErrStaleInstance = errors.New("membership: stale instance")
)

// Config sizes a Registry's lease terms.
type Config struct {
	// HeartbeatInterval is the beat period assigned to registering
	// workers (default 2s).
	HeartbeatInterval time.Duration
	// MissLimit is how many consecutive missed beats expire a lease
	// (default 3): a member is evicted when its last beat is older than
	// MissLimit × HeartbeatInterval.
	MissLimit int
	// Now is the clock (default time.Now). Tests inject a fake.
	Now func() time.Time
}

func (c *Config) fillDefaults() {
	switch {
	case c.HeartbeatInterval <= 0:
		c.HeartbeatInterval = 2 * time.Second
	case c.HeartbeatInterval < time.Millisecond:
		// Registrants are told the term in whole milliseconds; a shorter
		// one would advertise 0 (the agent's 2s default) while leases
		// expire after a few microseconds.
		c.HeartbeatInterval = time.Millisecond
	}
	if c.MissLimit <= 0 {
		c.MissLimit = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// member is the registry's record of one node.
type member struct {
	addr     string // normalized base URL, the registry key
	instance string // unique per process incarnation
	static   bool   // seeded from configuration; exempt from lease expiry
	state    State
	joined   time.Time
	lastBeat time.Time
}

// Registry is the coordinator-side membership authority. Safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member
	seen    map[string]bool // addrs ever registered, for rejoin counting
	version uint64          // bumped on any placement-relevant change

	joins, rejoins, drains, deregisters, evictions, rejectedBeats int64
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	cfg.fillDefaults()
	return &Registry{
		cfg:     cfg,
		members: map[string]*member{},
		seen:    map[string]bool{},
	}
}

// Lease returns the registry's heartbeat interval and miss limit.
func (r *Registry) Lease() (time.Duration, int) {
	return r.cfg.HeartbeatInterval, r.cfg.MissLimit
}

// ttl is the lease duration: a member whose last beat is older is dead.
func (r *Registry) ttl() time.Duration {
	return r.cfg.HeartbeatInterval * time.Duration(r.cfg.MissLimit)
}

// AddStatic seeds permanent members (the -workers flag): they are alive
// from the start, never expire, and need no heartbeats — but can still be
// drained and deregistered like any other member.
func (r *Registry) AddStatic(addrs []string) error {
	for _, a := range addrs {
		norm, err := NormalizeAddr(a)
		if err != nil {
			return fmt.Errorf("membership: static member %q: %w", a, err)
		}
		now := r.cfg.Now()
		r.mu.Lock()
		if _, ok := r.members[norm]; !ok {
			r.members[norm] = &member{
				addr: norm, instance: "static", static: true,
				state: StateAlive, joined: now, lastBeat: now,
			}
			r.seen[norm] = true
			r.version++
		}
		r.mu.Unlock()
	}
	return nil
}

// Register admits (or re-admits) a worker. A returning address — after an
// eviction, a deregistration, or with a new process incarnation — rejoins
// live; a registration for a draining address returns it to alive (the
// operator brought it back). The response carries the lease terms the
// agent must beat on. req must already be validated (DecodeRegister does
// both).
func (r *Registry) Register(req RegisterRequest) (RegisterResponse, error) {
	addr, err := NormalizeAddr(req.Addr)
	if err != nil {
		return RegisterResponse{}, err
	}
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	m, ok := r.members[addr]
	if ok {
		// Same address again: a new incarnation replaces the old one
		// (latest wins — the previous process is gone or restarting), and
		// an explicit re-register always returns the member to alive.
		m.instance = req.Instance
		m.lastBeat = now
		if m.state != StateAlive {
			m.state = StateAlive
			r.version++
		}
		r.rejoins++
	} else {
		r.members[addr] = &member{
			addr: addr, instance: req.Instance,
			state: StateAlive, joined: now, lastBeat: now,
		}
		r.version++
		if r.seen[addr] {
			r.rejoins++
		} else {
			r.joins++
			r.seen[addr] = true
		}
	}
	return RegisterResponse{
		State:           StateAlive,
		HeartbeatMillis: r.cfg.HeartbeatInterval.Milliseconds(),
		MissLimit:       r.cfg.MissLimit,
	}, nil
}

// Heartbeat renews a member's lease. The response
// tells the worker its authoritative state — a worker the operator
// drained learns it here. Unknown members get ErrUnknownMember (the agent
// re-registers); a stale incarnation gets ErrStaleInstance and must not
// refresh the current holder's lease.
func (r *Registry) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	addr, err := NormalizeAddr(req.Addr)
	if err != nil {
		return HeartbeatResponse{}, err
	}
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	m, ok := r.members[addr]
	if !ok {
		r.rejectedBeats++
		return HeartbeatResponse{}, ErrUnknownMember
	}
	if !m.static && m.instance != req.Instance {
		r.rejectedBeats++
		return HeartbeatResponse{}, ErrStaleInstance
	}
	m.lastBeat = now
	return HeartbeatResponse{State: m.state}, nil
}

// Drain marks a member draining: it keeps its lease (heartbeats continue)
// and finishes in-flight work, but the placement layer assigns it nothing
// new once Drain returns. Draining an already-draining member is a no-op.
func (r *Registry) Drain(addr string) error {
	norm, err := NormalizeAddr(addr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[norm]
	if !ok {
		return ErrUnknownMember
	}
	if m.state != StateDraining {
		m.state = StateDraining
		r.drains++
		r.version++
	}
	return nil
}

// Deregister removes a member. The instance must match the current
// incarnation (or be empty, for operator-initiated removal): an old
// incarnation racing a new registration must not remove its replacement.
// Removing an unknown member is a successful no-op, so retrying a
// shutdown sequence is safe.
func (r *Registry) Deregister(addr, instance string) error {
	norm, err := NormalizeAddr(addr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[norm]
	if !ok {
		return nil
	}
	if instance != "" && !m.static && m.instance != instance {
		return ErrStaleInstance
	}
	delete(r.members, norm)
	r.deregisters++
	r.version++
	return nil
}

// Sweep evicts every member whose lease has expired, returning how many.
// Snapshot and Stats sweep implicitly, so placement never sees an expired
// lease; a background sweeper only bounds how long a dead node lingers in
// /stats between renders.
func (r *Registry) Sweep() int {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweepLocked(now)
}

func (r *Registry) sweepLocked(now time.Time) int {
	ttl := r.ttl()
	evicted := 0
	for addr, m := range r.members {
		if m.static {
			continue
		}
		if now.Sub(m.lastBeat) > ttl {
			delete(r.members, addr)
			evicted++
		}
	}
	if evicted > 0 {
		r.evictions += int64(evicted)
		r.version++
	}
	return evicted
}

// MemberInfo is one member's public state.
type MemberInfo struct {
	Addr     string `json:"addr"`
	Instance string `json:"instance"`
	State    State  `json:"state"`
	Static   bool   `json:"static,omitempty"`
	// LastBeatAgeMs is how stale the member's lease is; eviction comes at
	// heartbeat_millis × miss_limit.
	LastBeatAgeMs float64 `json:"last_beat_age_ms"`
}

// Snapshot is a consistent view of the fleet for placement: Version
// changes iff the eligible set or a member's state may have changed (a
// heartbeat alone never bumps it), so ring construction can be cached on
// it.
type Snapshot struct {
	Version uint64
	Members []MemberInfo // sorted by Addr
}

// Eligible returns the alive members' addresses — the nodes new work may
// be placed on. Draining members are excluded by construction.
func (s Snapshot) Eligible() []string {
	var addrs []string
	for _, m := range s.Members {
		if m.State == StateAlive {
			addrs = append(addrs, m.Addr)
		}
	}
	return addrs
}

// Snapshot sweeps expired leases and returns the current membership.
func (r *Registry) Snapshot() Snapshot {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	snap := Snapshot{Version: r.version, Members: make([]MemberInfo, 0, len(r.members))}
	for _, m := range r.members {
		snap.Members = append(snap.Members, MemberInfo{
			Addr: m.addr, Instance: m.instance, State: m.state, Static: m.static,
			LastBeatAgeMs: float64(now.Sub(m.lastBeat)) / float64(time.Millisecond),
		})
	}
	sort.Slice(snap.Members, func(i, j int) bool { return snap.Members[i].Addr < snap.Members[j].Addr })
	return snap
}

// Stats is the /stats view of the registry: per-node state plus lifetime
// membership-event counters.
type Stats struct {
	Version         uint64       `json:"version"`
	HeartbeatMillis int64        `json:"heartbeat_millis"`
	MissLimit       int          `json:"miss_limit"`
	Alive           int          `json:"alive"`
	Draining        int          `json:"draining"`
	Members         []MemberInfo `json:"members"`

	Joins         int64 `json:"joins"`
	Rejoins       int64 `json:"rejoins"`
	Drains        int64 `json:"drains"`
	Deregisters   int64 `json:"deregisters"`
	Evictions     int64 `json:"evictions"`
	RejectedBeats int64 `json:"rejected_heartbeats"`
}

// Stats sweeps expired leases and snapshots the counters.
func (r *Registry) Stats() Stats {
	snap := r.Snapshot()
	r.mu.Lock()
	st := Stats{
		Version:         snap.Version,
		HeartbeatMillis: r.cfg.HeartbeatInterval.Milliseconds(),
		MissLimit:       r.cfg.MissLimit,
		Members:         snap.Members,
		Joins:           r.joins,
		Rejoins:         r.rejoins,
		Drains:          r.drains,
		Deregisters:     r.deregisters,
		Evictions:       r.evictions,
		RejectedBeats:   r.rejectedBeats,
	}
	r.mu.Unlock()
	for _, m := range st.Members {
		switch m.State {
		case StateAlive:
			st.Alive++
		case StateDraining:
			st.Draining++
		}
	}
	return st
}
