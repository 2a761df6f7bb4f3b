package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/sim"
	"gvmr/internal/vec"
)

// Stress suite: the frame cache under concurrent Get/Load/Flush — builds
// that keep, fail and discard — and the service under concurrent
// Render/Flush/Close with randomized interleavings. Run under -race in CI
// (the server race leg); the per-run seed is logged so a failing schedule
// can be chased.

func stressSeed(t *testing.T) int64 {
	seed := time.Now().UnixNano()
	t.Logf("stress seed %d", seed)
	return seed
}

// settled checks a frame cache at rest: nothing in flight, and
// bytes_in_use is exactly the ready frames it holds, within the budget.
func settled(t *testing.T, c *FrameCache) {
	t.Helper()
	var sum int64
	for _, e := range c.Entries() {
		if !e.Ready {
			t.Errorf("key %+v still in flight at rest (%d bytes reserved)", e.Key, e.Bytes)
			continue
		}
		if e.Bytes != e.Val.Bytes() {
			t.Errorf("key %+v charged %d bytes, its frame is %d", e.Key, e.Bytes, e.Val.Bytes())
		}
		sum += e.Bytes
	}
	if st := c.Stats(); st.BytesInUse != sum || sum > st.Capacity {
		t.Errorf("settled cache holds %d bytes of ready frames, bytes_in_use %d, capacity %d", sum, st.BytesInUse, st.Capacity)
	}
}

// TestFrameCacheStress hammers one small cache from many goroutines with
// every operation the service performs, against a deliberately tiny
// budget so reservations, bypasses and evictions all trigger constantly.
// Invariants: every lookup counts once, and at rest no reservation is
// left unpaired and the accounting is exactly the frames held.
func TestFrameCacheStress(t *testing.T) {
	seed := stressSeed(t)
	const workers = 8
	cache := NewFrameCache(20 * mkFrame(8, 8).Bytes() / 10) // ~2 frames' worth
	var loads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < 3000; i++ {
				key := Request{Dataset: fmt.Sprintf("k%d", rng.Intn(6))}
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // lookups dominate in production
					if _, ok := cache.Get(key); ok {
						loads.Add(1)
					}
				case 4, 5, 6:
					loads.Add(1)
					fail := rng.Intn(4) == 0
					cache.Load(key, img.RawBytes(8, 8), func(bool) (*Frame, int64, error) {
						if fail {
							return nil, 0, errors.New("synthetic render failure")
						}
						f := mkFrame(8, 8)
						return f, f.Bytes(), nil
					})
				case 7:
					cache.Flush()
				case 8:
					cache.Stats()
				case 9:
					// Oversized reservation: must be refused, never wedge.
					loads.Add(1)
					cache.Load(key, cache.Capacity()+1, func(reserved bool) (*Frame, int64, error) {
						if reserved {
							t.Error("over-capacity reservation granted")
						}
						return mkFrame(8, 8), 1, nil
					})
				}
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.Hits+st.Misses != loads.Load() {
		t.Errorf("hits %d + misses %d for %d loads and hitting gets", st.Hits, st.Misses, loads.Load())
	}
	settled(t, cache)
}

// TestServiceStress runs the full request path — cache, coalescing,
// admission — under concurrent randomized load with cache flushes mixed
// in: first a leg that nothing sheds or fails, where the request ledger
// must balance exactly, then a leg that closes the service mid-traffic.
// Every response must be a frame or one of the declared errors; after
// each leg every request counted as exactly one cache hit or miss and the
// cache is settled, and after the second the service is drained.
func TestServiceStress(t *testing.T) {
	seed := stressSeed(t)
	const workers = 12
	// Queue room for every client at once: the first leg must shed nothing.
	s := newTestService(t, Config{GPUs: 2, Workers: 4, MaxQueue: workers})
	s.renderOn = func(spec cluster.Spec, opt core.Options, devWorkers int) (*core.Result, sim.Time, error) {
		time.Sleep(time.Duration(opt.Width%5) * time.Millisecond) // vary interleavings
		im := img.New(opt.Width, opt.Height, vec.V4{X: 0.5, W: 1})
		return &core.Result{Image: im, Runtime: sim.Second}, sim.Second, nil
	}

	var unexpected sync.Map
	// storm runs the clients until during returns, then waits for them.
	storm := func(leg int64, during func()) Stats {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < workers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed ^ int64(g)<<32 ^ leg<<48))
				for {
					select {
					case <-stop:
						return
					default:
					}
					switch rng.Intn(12) {
					case 0:
						s.cache.Flush()
					case 1:
						s.Stats()
					default:
						req := Request{
							Dataset: "skull", Edge: 16,
							Width:  16 + rng.Intn(4), // small key space → real coalescing
							Height: 16,
							Orbit:  float64(rng.Intn(3)) * 10,
						}
						_, _, err := s.Render(context.Background(), req)
						switch {
						case err == nil:
						case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
						default:
							unexpected.Store(err.Error(), true)
						}
					}
				}
			}()
		}
		during()
		close(stop)
		wg.Wait()
		unexpected.Range(func(k, _ any) bool {
			t.Errorf("unexpected render error under stress: %v", k)
			return true
		})
		st := s.Stats()
		if st.Cache.Hits+st.Cache.Misses != st.Requests {
			t.Errorf("leg %d: %d requests counted %d cache hits + %d misses", leg, st.Requests, st.Cache.Hits, st.Cache.Misses)
		}
		settled(t, s.cache)
		return st
	}

	st := storm(1, func() { time.Sleep(100 * time.Millisecond) })
	if st.Rejected != 0 || st.Errors != 0 {
		t.Fatalf("the clean leg shed %d and failed %d requests", st.Rejected, st.Errors)
	}
	if got := st.Cache.Hits + st.Coalesced + st.Renders; got != st.Requests {
		t.Errorf("ledger: %d requests, but %d hits + %d coalesced + %d renders = %d",
			st.Requests, st.Cache.Hits, st.Coalesced, st.Renders, got)
	}
	if st.Renders == 0 || st.Cache.Hits == 0 {
		t.Errorf("clean leg performed %d renders and %d cache hits, want both", st.Renders, st.Cache.Hits)
	}

	st = storm(2, func() {
		time.Sleep(100 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close under load: %v", err)
		}
	})
	if st.InFlight != 0 {
		t.Errorf("renders still in flight after drain: %d", st.InFlight)
	}
	if !st.Draining {
		t.Error("service not marked draining after Close")
	}
}
