package sim

import (
	"strings"
	"testing"
)

func TestClockAdvances(t *testing.T) {
	env := NewEnv()
	var at1, at2 Time
	env.Go("a", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		at1 = p.Now()
		p.Sleep(5 * Millisecond)
		at2 = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 10*Millisecond {
		t.Errorf("after first sleep now = %v, want 10ms", at1)
	}
	if at2 != 15*Millisecond {
		t.Errorf("after second sleep now = %v, want 15ms", at2)
	}
	if env.Now() != 15*Millisecond {
		t.Errorf("final env time = %v, want 15ms", env.Now())
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, spec := range []struct {
			name  string
			delay Time
		}{{"c", 30}, {"a", 10}, {"b", 20}, {"a2", 10}} {
			spec := spec
			env.Go(spec.name, func(p *Proc) {
				p.Sleep(spec.delay)
				order = append(order, spec.name)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"a", "a2", "b", "c"}
	for i := 0; i < 20; i++ {
		got := run()
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("run %d: order %v, want %v", i, got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, n := range []string{"p1", "p2", "p3"} {
		n := n
		env.Go(n, func(p *Proc) {
			p.Sleep(5 * Millisecond) // all wake at the same instant
			order = append(order, n)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "p1,p2,p3" {
		t.Errorf("same-time order = %v, want spawn order", order)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childTime Time
	env.Go("parent", func(p *Proc) {
		p.Sleep(7 * Millisecond)
		p.Env().Go("child", func(c *Proc) {
			c.Sleep(3 * Millisecond)
			childTime = c.Now()
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 10*Millisecond {
		t.Errorf("child finished at %v, want 10ms", childTime)
	}
}

func TestNegativeSleepClamped(t *testing.T) {
	env := NewEnv()
	env.Go("a", func(p *Proc) {
		p.Sleep(-5 * Millisecond)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitUntilPast(t *testing.T) {
	env := NewEnv()
	env.Go("a", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		p.WaitUntil(5 * Millisecond) // already past: should not rewind
		if p.Now() != 10*Millisecond {
			t.Errorf("WaitUntil past rewound clock to %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * Millisecond)
			ticks++
		}
	})
	if err := env.RunUntil(55 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("ticks at t=55ms: %d, want 5", ticks)
	}
	if env.Now() != 55*Millisecond {
		t.Errorf("now = %v, want 55ms", env.Now())
	}
	// Continue to completion.
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Errorf("ticks at end: %d, want 100", ticks)
	}
}

func TestProcessPanicBecomesError(t *testing.T) {
	env := NewEnv()
	env.Go("bad", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Run err = %v, want panic surfaced", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "never", 0)
	env.Go("waiter", func(p *Proc) {
		ch.Recv(p)
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Run err = %v, want deadlock", err)
	}
	if err != nil && !strings.Contains(err.Error(), "waiter") {
		t.Errorf("deadlock report %v should name the blocked process", err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2500 * Nanosecond, "2.50µs"},
		{Millis(1.5), "1.500ms"},
		{Seconds(2.25), "2.2500s"},
		{-Millis(3), "-3.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Error("Seconds conversion wrong")
	}
	if Millis(2) != 2*Millisecond {
		t.Error("Millis conversion wrong")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := BytesTime(1<<20, 1<<20); got != Second {
		t.Errorf("BytesTime(1MiB @ 1MiB/s) = %v, want 1s", got)
	}
	if got := BytesTime(100, 0); got != 0 {
		t.Errorf("BytesTime with zero bandwidth = %v, want 0", got)
	}
	if got := WorkTime(70e6, 70e6); got != Second {
		t.Errorf("WorkTime = %v, want 1s", got)
	}
}
