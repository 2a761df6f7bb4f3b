package sim

import (
	"strings"
	"testing"
)

func TestResourceQueueLen(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	env.Go("holder", func(p *Proc) {
		res.Use(p, 10*Millisecond)
	})
	var done []Time
	for i := 0; i < 2; i++ {
		env.Go("waiter", func(p *Proc) {
			p.Sleep(Millisecond)
			res.Use(p, Millisecond)
			done = append(done, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0] != 11*Millisecond || done[1] != 12*Millisecond {
		t.Errorf("queued users finished at %v, want [11ms 12ms]", done)
	}
	// The drained resource serves a later user without a wait.
	env.Go("late", func(p *Proc) {
		start := p.Now()
		res.Acquire(p)
		if p.Now() != start {
			t.Errorf("acquire on a drained resource waited until %v", p.Now())
		}
		res.Release(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanAccessors(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "c", 4)
	env.Go("p", func(p *Proc) {
		if ch.Len() != 0 {
			t.Error("fresh chan not empty")
		}
		ch.Send(p, 1)
		ch.Send(p, 2)
		if ch.Len() != 2 {
			t.Errorf("Len = %d", ch.Len())
		}
		ch.Recv(p)
		if ch.Len() != 1 {
			t.Errorf("Len after recv = %d", ch.Len())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env, "w")
	env.Go("bad", func(p *Proc) {
		wg.Add(p, -1)
	})
	if err := env.Run(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative waitgroup not surfaced: %v", err)
	}
}

func TestDoubleClosePanics(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "c", 1)
	env.Go("p", func(p *Proc) {
		ch.Close(p)
		ch.Close(p)
	})
	if err := env.Run(); err == nil {
		t.Error("double close not surfaced")
	}
}

func TestZeroCapacityResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity resource accepted")
		}
	}()
	NewResource(NewEnv(), "r", 0)
}

func TestNegativeCapacityChanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative-capacity chan accepted")
		}
	}()
	NewChan[int](NewEnv(), "c", -1)
}

func TestManyProcessesDeterministic(t *testing.T) {
	// A few hundred interleaved processes contending on shared resources
	// finish at exactly the same virtual time on every run.
	run := func() Time {
		env := NewEnv()
		res := NewResource(env, "shared", 3)
		ch := NewChan[int](env, "pipe", 8)
		env.Go("sink", func(p *Proc) {
			for {
				if _, ok := ch.Recv(p); !ok {
					return
				}
				p.Sleep(10 * Microsecond)
			}
		})
		wg := NewWaitGroup(env, "all")
		env.Go("spawner", func(p *Proc) {
			for i := 0; i < 300; i++ {
				i := i
				wg.Add(p, 1)
				env.Go("w", func(q *Proc) {
					q.Sleep(Time(i%17) * Microsecond)
					res.Use(q, Time(50+i%7*13)*Microsecond)
					ch.Send(q, i)
					wg.Done(q)
				})
			}
			wg.Wait(p)
			ch.Close(p)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return env.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d ended at %v, first at %v", i, got, first)
		}
	}
	if first <= 0 {
		t.Error("empty run")
	}
}

func TestEnvRunAfterCompletion(t *testing.T) {
	env := NewEnv()
	env.Go("a", func(p *Proc) { p.Sleep(Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Extend the finished simulation with new work.
	env.Go("b", func(p *Proc) { p.Sleep(Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 2*Millisecond {
		t.Errorf("extended run ended at %v", env.Now())
	}
}
