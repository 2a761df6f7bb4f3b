package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fixed is a build that returns v at a charge of n bytes.
func fixed(v string, n int64) func(bool) (string, int64, error) {
	return func(bool) (string, int64, error) { return v, n, nil }
}

// checkInvariants holds the running counts to a walk of the entries.
func checkInvariants[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var all, ready int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		all += e.bytes
		if e.ready {
			ready += e.bytes
		}
		if c.entries[e.key] != e {
			t.Fatalf("entry %v is in the LRU but not the map", e.key)
		}
	}
	if c.lru.Len() != len(c.entries) {
		t.Fatalf("%d entries in the LRU, %d in the map", c.lru.Len(), len(c.entries))
	}
	if all != c.inUse || ready != c.ready {
		t.Fatalf("running counts inUse=%d ready=%d, walk says %d / %d", c.inUse, c.ready, all, ready)
	}
}

func TestLoadBuildsOnceAndEvictsLRU(t *testing.T) {
	c := New[string, string](30)
	for _, k := range []string{"a", "b", "c"} {
		if v, how, err := c.Load(k, 10, fixed("v"+k, 10)); v != "v"+k || how != Built || err != nil {
			t.Fatalf("first load of %s: %q %v %v", k, v, how, err)
		}
	}
	if v, how, _ := c.Load("a", 10, fixed("rebuilt", 10)); v != "va" || how != Hit {
		t.Fatalf("second load of a: %q %v, want the kept value as a hit", v, how)
	}
	c.Load("d", 10, fixed("vd", 10)) // evicts b: a was just touched
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently touched entry was evicted")
	}
	c.Demote("a")
	c.Load("e", 10, fixed("ve", 10))
	if _, ok := c.Get("a"); ok {
		t.Error("demoted entry was not the next to go")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 5 || st.Inserts != 5 || st.Evictions != 2 || st.BytesInUse != 30 {
		t.Errorf("stats %+v", st)
	}
	checkInvariants(t, c)
	c.Flush()
	if st := c.Stats(); st.BytesInUse != 0 || len(c.Entries()) != 0 {
		t.Errorf("after flush: %+v, %d entries", st, len(c.Entries()))
	}
}

// TestLoadSharesOneBuild: callers that arrive while a build is in flight
// wait for it, whether or not its value is then kept — a disabled cache,
// a Discard and a failure all still coalesce.
func TestLoadSharesOneBuild(t *testing.T) {
	fail := errors.New("synthetic")
	for _, tc := range []struct {
		name     string
		capacity int64
		charge   int64
		err      error
		kept     bool
	}{
		{"kept", 100, 10, nil, true},
		{"disabled", 0, 10, nil, false},
		{"over budget", 5, 10, nil, false},
		{"discarded", 100, Discard, nil, false},
		{"failed", 100, 10, fail, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, string](tc.capacity)
			release := make(chan struct{})
			var builds int
			var wg sync.WaitGroup
			load := func() {
				defer wg.Done()
				v, _, err := c.Load("k", 10, func(reserved bool) (string, int64, error) {
					builds++ // one builder: unsynchronised on purpose, -race would tell
					if want := tc.capacity >= 10; reserved != want {
						t.Errorf("reserved = %v, want %v", reserved, want)
					}
					<-release
					return "v", tc.charge, tc.err
				})
				if v != "v" || err != tc.err {
					t.Errorf("load: %q, %v", v, err)
				}
			}
			wg.Add(5)
			go load()
			waitFor(t, func() bool { return c.Stats().Misses == 1 }) // the builder
			for i := 0; i < 4; i++ {
				go load()
			}
			waitFor(t, func() bool { return c.Stats().Joins == 4 })
			close(release)
			wg.Wait()
			if builds != 1 {
				t.Errorf("%d builds, want 1", builds)
			}
			_, ok := c.Get("k")
			if ok != tc.kept {
				t.Errorf("kept = %v, want %v", ok, tc.kept)
			}
			wantBytes, wantInserts := int64(0), int64(0)
			if tc.kept {
				wantBytes, wantInserts = 10, 1
			}
			if st := c.Stats(); st.BytesInUse != wantBytes || st.Inserts != wantInserts {
				t.Errorf("stats %+v, want %d bytes in use and %d inserts", st, wantBytes, wantInserts)
			}
			checkInvariants(t, c)
		})
	}
}

// TestLoadFinalCharge: the estimate is replaced by the charge the build
// reports, evicting if the difference pushed the cache over budget.
func TestLoadFinalCharge(t *testing.T) {
	c := New[string, string](25)
	c.Load("a", 10, fixed("va", 10))
	c.Load("b", 10, fixed("vb", 18))
	if st := c.Stats(); st.BytesInUse != 18 || st.Evictions != 1 {
		t.Errorf("stats %+v, want b alone at its final charge", st)
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("the resized entry was evicted instead of the older one")
	}
	checkInvariants(t, c)
}

// TestLoadBudgetHeldInFlight: a reservation in flight cannot be evicted,
// so a miss that does not fit beside it runs unreserved and evicts nothing.
func TestLoadBudgetHeldInFlight(t *testing.T) {
	c := New[string, string](30)
	c.Load("ready", 10, fixed("v", 10))
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Load("slow", 20, func(bool) (string, int64, error) { <-release; return "v", 20, nil })
	}()
	waitFor(t, func() bool { return c.Stats().BytesInUse == 30 })
	c.Load("big", 15, func(reserved bool) (string, int64, error) {
		if reserved {
			t.Error("reservation granted past the in-flight bytes")
		}
		return "v", 15, nil
	})
	if _, ok := c.Get("ready"); !ok {
		t.Error("a refused reservation evicted a ready entry")
	}
	if st := c.Stats(); st.Bypassed != 1 || st.BytesInUse != 30 {
		t.Errorf("stats %+v", st)
	}
	close(release)
	<-done
	checkInvariants(t, c)
}

// TestLoadBuildPanic: a build that panics must not poison its key — the
// entry goes, the reservation is released, waiters get ErrBuildAborted,
// the builder's caller sees the panic, and the next Load builds afresh.
func TestLoadBuildPanic(t *testing.T) {
	c := New[string, string](100)
	entered, release := make(chan struct{}), make(chan struct{})
	builder := make(chan any, 1)
	go func() {
		defer func() { builder <- recover() }()
		c.Load("k", 10, func(bool) (string, int64, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Load("k", 10, fixed("never", 10))
		waiter <- err
	}()
	waitFor(t, func() bool { return c.Stats().Joins == 1 })
	close(release)
	if r := <-builder; r != "boom" {
		t.Fatalf("builder's caller recovered %v, want the build's panic", r)
	}
	if err := <-waiter; !errors.Is(err, ErrBuildAborted) {
		t.Fatalf("waiter got %v, want ErrBuildAborted", err)
	}
	if st := c.Stats(); st.BytesInUse != 0 || len(c.Entries()) != 0 {
		t.Fatalf("panicked build left %d bytes, %d entries", st.BytesInUse, len(c.Entries()))
	}
	if v, how, err := c.Load("k", 10, fixed("v", 10)); v != "v" || how != Built || err != nil {
		t.Fatalf("load after the panic: %q %v %v", v, how, err)
	}
	checkInvariants(t, c)
}

// TestCacheStress hammers one tiny cache with every operation from many
// goroutines; afterwards nothing is in flight, the counts match a walk,
// every Load counted once, and the budget holds.
func TestCacheStress(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("stress seed %d", seed)
	c := New[int, int](25)
	const workers, rounds = 8, 3000
	var loads [workers]int64 // per goroutine: Loads made plus Gets that hit
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < rounds; i++ {
				key := rng.Intn(6)
				switch op := rng.Intn(10); op {
				case 0, 1, 2:
					if v, ok := c.Get(key); ok {
						loads[g]++
						if v != key {
							t.Errorf("key %d holds %d", key, v)
						}
					}
				case 3, 4, 5, 6:
					loads[g]++
					charge, fail := int64(5+rng.Intn(10)), op == 3 && rng.Intn(2) == 0
					v, _, err := c.Load(key, 8, func(bool) (int, int64, error) {
						if fail {
							return 0, 0, fmt.Errorf("synthetic")
						}
						if rng.Intn(8) == 0 {
							charge = Discard
						}
						return key, charge, nil
					})
					if err == nil && v != key {
						t.Errorf("key %d loaded %d", key, v)
					}
				case 7:
					c.Flush()
				case 8:
					c.Demote(key)
				case 9:
					c.Load(key, c.Capacity()+1, func(reserved bool) (int, int64, error) {
						if reserved {
							t.Error("over-capacity reservation granted")
						}
						return key, 1, nil
					})
					loads[g]++
				}
			}
		}()
	}
	wg.Wait()
	checkInvariants(t, c)
	var total int64
	for _, n := range loads {
		total += n
	}
	st := c.Stats()
	if got := st.Hits + st.Misses; got != total {
		t.Errorf("hits+misses = %d for %d loads and hitting gets", got, total)
	}
	if st.BytesInUse > st.Capacity {
		t.Errorf("settled cache over budget: %+v", st)
	}
	for _, e := range c.Entries() {
		if !e.Ready {
			t.Errorf("key %d still in flight at rest", e.Key)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting")
		}
	}
}
