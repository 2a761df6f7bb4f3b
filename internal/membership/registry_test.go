package membership

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually-advanced clock for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testRegistry(t *testing.T) (*Registry, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	return New(Config{HeartbeatInterval: time.Second, MissLimit: 3, Now: clk.Now}), clk
}

func register(t *testing.T, r *Registry, addr, instance string) RegisterResponse {
	t.Helper()
	resp, err := r.Register(RegisterRequest{Addr: addr, Instance: instance})
	if err != nil {
		t.Fatalf("Register(%s): %v", addr, err)
	}
	return resp
}

func TestRegisterAssignsLeaseTerms(t *testing.T) {
	r, _ := testRegistry(t)
	resp := register(t, r, "127.0.0.1:9001", "inst-a")
	if resp.State != StateAlive {
		t.Fatalf("state = %q, want alive", resp.State)
	}
	if resp.HeartbeatMillis != 1000 || resp.MissLimit != 3 {
		t.Fatalf("lease terms = %d ms × %d, want 1000 × 3", resp.HeartbeatMillis, resp.MissLimit)
	}
	snap := r.Snapshot()
	if len(snap.Members) != 1 || snap.Members[0].Addr != "http://127.0.0.1:9001" {
		t.Fatalf("snapshot = %+v, want one normalized member", snap.Members)
	}
	if got := snap.Eligible(); len(got) != 1 {
		t.Fatalf("eligible = %v, want the registered member", got)
	}
}

func TestLeaseExpiryEvicts(t *testing.T) {
	r, clk := testRegistry(t)
	register(t, r, "127.0.0.1:9001", "inst-a")

	// Delayed-but-within-lease heartbeats keep the member alive: 2.5s
	// between beats is past two intervals but inside the 3-miss TTL.
	clk.Advance(2500 * time.Millisecond)
	if _, err := r.Heartbeat(HeartbeatRequest{Addr: "127.0.0.1:9001", Instance: "inst-a"}); err != nil {
		t.Fatalf("delayed heartbeat rejected: %v", err)
	}
	if got := r.Snapshot().Eligible(); len(got) != 1 {
		t.Fatalf("delayed-but-live member evicted: eligible = %v", got)
	}

	// Silence past TTL (3×1s) evicts; the next beat is rejected with
	// ErrUnknownMember so the agent knows to re-register.
	clk.Advance(3100 * time.Millisecond)
	if got := r.Snapshot().Eligible(); len(got) != 0 {
		t.Fatalf("dead member still eligible: %v", got)
	}
	_, err := r.Heartbeat(HeartbeatRequest{Addr: "127.0.0.1:9001", Instance: "inst-a"})
	if !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("post-eviction heartbeat err = %v, want ErrUnknownMember", err)
	}
	st := r.Stats()
	if st.Evictions != 1 || st.RejectedBeats != 1 {
		t.Fatalf("evictions=%d rejected=%d, want 1 and 1", st.Evictions, st.RejectedBeats)
	}

	// Re-registration after eviction rejoins live.
	register(t, r, "127.0.0.1:9001", "inst-a2")
	if got := r.Snapshot().Eligible(); len(got) != 1 {
		t.Fatalf("re-registered member not eligible: %v", got)
	}
	st = r.Stats()
	if st.Joins != 1 || st.Rejoins != 1 {
		t.Fatalf("joins=%d rejoins=%d, want 1 and 1", st.Joins, st.Rejoins)
	}
}

func TestDrainStateMachine(t *testing.T) {
	r, _ := testRegistry(t)
	register(t, r, "127.0.0.1:9001", "inst-a")
	register(t, r, "127.0.0.1:9002", "inst-b")

	if err := r.Drain("127.0.0.1:9001"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Draining members keep their lease but leave the eligible set.
	snap := r.Snapshot()
	if got := snap.Eligible(); len(got) != 1 || got[0] != "http://127.0.0.1:9002" {
		t.Fatalf("eligible after drain = %v, want only 9002", got)
	}
	if len(snap.Members) != 2 {
		t.Fatalf("draining member dropped from snapshot: %+v", snap.Members)
	}
	// The next heartbeat tells the worker it is draining.
	hb, err := r.Heartbeat(HeartbeatRequest{Addr: "127.0.0.1:9001", Instance: "inst-a"})
	if err != nil || hb.State != StateDraining {
		t.Fatalf("heartbeat while draining = (%+v, %v), want draining state", hb, err)
	}
	// Draining again is a no-op (idempotent drain ack).
	if err := r.Drain("127.0.0.1:9001"); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	if st := r.Stats(); st.Drains != 1 || st.Draining != 1 || st.Alive != 1 {
		t.Fatalf("stats = drains:%d draining:%d alive:%d, want 1/1/1", st.Drains, st.Draining, st.Alive)
	}
	// Re-registering returns the member to alive (operator brought it back).
	register(t, r, "127.0.0.1:9001", "inst-a2")
	if got := r.Snapshot().Eligible(); len(got) != 2 {
		t.Fatalf("eligible after re-register = %v, want both", got)
	}
	// Draining an unknown member errors.
	if err := r.Drain("127.0.0.1:9999"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("Drain(unknown) = %v, want ErrUnknownMember", err)
	}
}

func TestStaleInstanceFencing(t *testing.T) {
	r, _ := testRegistry(t)
	register(t, r, "127.0.0.1:9001", "old-incarnation")
	register(t, r, "127.0.0.1:9001", "new-incarnation") // restart wins

	// The old incarnation can neither refresh the lease...
	_, err := r.Heartbeat(HeartbeatRequest{Addr: "127.0.0.1:9001", Instance: "old-incarnation"})
	if !errors.Is(err, ErrStaleInstance) {
		t.Fatalf("stale heartbeat err = %v, want ErrStaleInstance", err)
	}
	// ...nor remove its replacement.
	if err := r.Deregister("127.0.0.1:9001", "old-incarnation"); !errors.Is(err, ErrStaleInstance) {
		t.Fatalf("stale deregister err = %v, want ErrStaleInstance", err)
	}
	if got := r.Snapshot().Eligible(); len(got) != 1 {
		t.Fatalf("current incarnation lost its lease: %v", got)
	}
	// The current incarnation beats fine.
	if _, err := r.Heartbeat(HeartbeatRequest{Addr: "127.0.0.1:9001", Instance: "new-incarnation"}); err != nil {
		t.Fatalf("current heartbeat: %v", err)
	}
	// And deregisters fine; retrying the removal is a no-op, not an error.
	if err := r.Deregister("127.0.0.1:9001", "new-incarnation"); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	if err := r.Deregister("127.0.0.1:9001", "new-incarnation"); err != nil {
		t.Fatalf("repeated deregister: %v", err)
	}
	if got := r.Snapshot().Members; len(got) != 0 {
		t.Fatalf("members after deregister = %+v, want none", got)
	}
}

func TestStaticMembersNeverExpire(t *testing.T) {
	r, clk := testRegistry(t)
	if err := r.AddStatic([]string{"127.0.0.1:9001", "127.0.0.1:9002"}); err != nil {
		t.Fatalf("AddStatic: %v", err)
	}
	register(t, r, "127.0.0.1:9003", "inst-c")

	clk.Advance(time.Hour) // far past any lease
	got := r.Snapshot().Eligible()
	if len(got) != 2 {
		t.Fatalf("eligible after an hour = %v, want the two static members", got)
	}
	// Static members can still be drained like any other.
	if err := r.Drain("127.0.0.1:9001"); err != nil {
		t.Fatalf("drain static: %v", err)
	}
	if got := r.Snapshot().Eligible(); len(got) != 1 || got[0] != "http://127.0.0.1:9002" {
		t.Fatalf("eligible after static drain = %v", got)
	}
	// AddStatic is idempotent.
	if err := r.AddStatic([]string{"127.0.0.1:9002"}); err != nil {
		t.Fatalf("repeated AddStatic: %v", err)
	}
	if n := len(r.Snapshot().Members); n != 2 {
		t.Fatalf("members = %d, want 2", n)
	}
}

func TestVersionSemantics(t *testing.T) {
	r, _ := testRegistry(t)
	v0 := r.Snapshot().Version

	register(t, r, "127.0.0.1:9001", "inst-a")
	v1 := r.Snapshot().Version
	if v1 == v0 {
		t.Fatal("join did not bump version")
	}
	// Heartbeats refresh the lease but never bump the version — the
	// placement ring cache is keyed on it.
	for i := 0; i < 5; i++ {
		if _, err := r.Heartbeat(HeartbeatRequest{Addr: "127.0.0.1:9001", Instance: "inst-a"}); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if v := r.Snapshot().Version; v != v1 {
		t.Fatalf("heartbeat bumped version %d -> %d", v1, v)
	}
	// Re-registering the same incarnation while alive is lease-refresh
	// only: no state change, no version bump.
	register(t, r, "127.0.0.1:9001", "inst-a")
	if v := r.Snapshot().Version; v != v1 {
		t.Fatalf("no-op re-register bumped version %d -> %d", v1, v)
	}
	if err := r.Drain("127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	v2 := r.Snapshot().Version
	if v2 == v1 {
		t.Fatal("drain did not bump version")
	}
	if err := r.Deregister("127.0.0.1:9001", ""); err != nil {
		t.Fatal(err)
	}
	if v := r.Snapshot().Version; v == v2 {
		t.Fatal("deregister did not bump version")
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	r, _ := testRegistry(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addr := "127.0.0.1:900" + string(rune('0'+i))
			for j := 0; j < 50; j++ {
				_, _ = r.Register(RegisterRequest{Addr: addr, Instance: "inst"})
				_, _ = r.Heartbeat(HeartbeatRequest{Addr: addr, Instance: "inst"})
				_ = r.Snapshot()
				_ = r.Stats()
				if j%10 == 9 {
					_ = r.Drain(addr)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSubMillisecondHeartbeatRaised: the registry advertises its term in
// whole milliseconds, so a sub-millisecond interval is raised to 1ms — the
// advertised term is never 0 and never longer than the lease it enforces.
func TestSubMillisecondHeartbeatRaised(t *testing.T) {
	r := New(Config{HeartbeatInterval: 500 * time.Microsecond, MissLimit: 3})
	resp := register(t, r, "127.0.0.1:9001", "inst-a")
	advertised := time.Duration(resp.HeartbeatMillis) * time.Millisecond
	if advertised < time.Millisecond {
		t.Fatalf("advertised %v, want >= 1ms", advertised)
	}
	if ttl := r.ttl(); ttl < advertised {
		t.Fatalf("enforced ttl %v < advertised term %v", ttl, advertised)
	}
	if iv, _ := r.Lease(); iv != time.Millisecond {
		t.Fatalf("Lease interval = %v, want 1ms", iv)
	}
}
