package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceSerialises(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "link", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		env.Go("u", func(p *Proc) {
			res.Use(p, 10*Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	for i, w := range want {
		if ends[i] != w {
			t.Errorf("user %d finished at %v, want %v", i, ends[i], w)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "dual", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		env.Go("u", func(p *Proc) {
			res.Use(p, 10*Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run 0-10ms, two run 10-20ms.
	want := []Time{10 * Millisecond, 10 * Millisecond, 20 * Millisecond, 20 * Millisecond}
	for i, w := range want {
		if ends[i] != w {
			t.Errorf("user %d finished at %v, want %v", i, ends[i], w)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("u", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond) // arrive in index order
			res.Acquire(p)
			order = append(order, i)
			p.Sleep(20 * Millisecond)
			res.Release(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("service order %v, want arrival order", order)
		}
	}
}

func TestResourceWaitTime(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var acquired []Time
	for i := 0; i < 2; i++ {
		env.Go("u", func(p *Proc) {
			res.Acquire(p)
			acquired = append(acquired, p.Now())
			p.Sleep(10 * Millisecond)
			res.Release(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acquired) != 2 || acquired[0] != 0 || acquired[1] != 10*Millisecond {
		t.Errorf("acquired at %v, want [0 10ms] (second user queued behind first)", acquired)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	env.Go("bad", func(p *Proc) { res.Release(p) })
	if err := env.Run(); err == nil {
		t.Error("releasing an idle resource should surface an error")
	}
}

// Property: for capacity c and n users each holding the resource for d, the
// makespan is ceil(n/c)*d — the canonical FIFO queueing identity.
func TestResourceMakespanProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func() bool {
		n := 1 + r.Intn(20)
		c := 1 + r.Intn(4)
		d := Time(1+r.Intn(50)) * Millisecond
		env := NewEnv()
		res := NewResource(env, "r", c)
		for i := 0; i < n; i++ {
			env.Go("u", func(p *Proc) { res.Use(p, d) })
		}
		if err := env.Run(); err != nil {
			return false
		}
		waves := (n + c - 1) / c
		return env.Now() == Time(waves)*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
