package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChanBufferedFIFO(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "c", 4)
	var got []int
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			ch.Send(p, i)
		}
		ch.Close(p)
	})
	env.Go("consumer", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("received %v, want 0..3 in order", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("received %d values, want 4", len(got))
	}
}

func TestChanRendezvous(t *testing.T) {
	env := NewEnv()
	ch := NewChan[string](env, "c", 0)
	var sendDone, recvDone Time
	env.Go("sender", func(p *Proc) {
		ch.Send(p, "x")
		sendDone = p.Now()
	})
	env.Go("receiver", func(p *Proc) {
		p.Sleep(25 * Millisecond)
		v, ok := ch.Recv(p)
		if !ok || v != "x" {
			t.Errorf("Recv = %q, %v", v, ok)
		}
		recvDone = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 25*Millisecond {
		t.Errorf("sender completed at %v, want 25ms (blocked until receiver)", sendDone)
	}
	if recvDone != 25*Millisecond {
		t.Errorf("receiver completed at %v", recvDone)
	}
}

func TestChanBlocksWhenFull(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "c", 1)
	var secondSendAt Time
	env.Go("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2) // blocks: buffer full
		secondSendAt = p.Now()
	})
	env.Go("receiver", func(p *Proc) {
		p.Sleep(40 * Millisecond)
		ch.Recv(p)
		ch.Recv(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if secondSendAt != 40*Millisecond {
		t.Errorf("second send completed at %v, want 40ms", secondSendAt)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "c", 0)
	okSeen := true
	env.Go("receiver", func(p *Proc) {
		_, ok := ch.Recv(p)
		okSeen = ok
	})
	env.Go("closer", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		ch.Close(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if okSeen {
		t.Error("Recv on closed chan returned ok=true")
	}
}

func TestChanDrainAfterClose(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "c", 8)
	var got []int
	env.Go("producer", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Close(p)
	})
	env.Go("consumer", func(p *Proc) {
		p.Sleep(10 * Millisecond) // arrive after close
		for {
			v, ok := ch.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("drained %v, want [1 2]", got)
	}
}

func TestSendOnClosedPanics(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, "c", 1)
	env.Go("p", func(p *Proc) {
		ch.Close(p)
		ch.Send(p, 1)
	})
	if err := env.Run(); err == nil {
		t.Error("send on closed chan should surface an error")
	}
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env, "jobs")
	var doneAt Time
	env.Go("spawner", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			i := i
			wg.Add(p, 1)
			p.Env().Go("job", func(j *Proc) {
				j.Sleep(Time(i*10) * Millisecond)
				wg.Done(j)
			})
		}
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 30*Millisecond {
		t.Errorf("WaitGroup released at %v, want 30ms", doneAt)
	}
}

func TestWaitGroupZeroImmediate(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env, "empty")
	env.Go("p", func(p *Proc) {
		wg.Wait(p) // count 0: returns immediately
		if p.Now() != 0 {
			t.Errorf("Wait on empty group advanced time to %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: a producer/consumer pair over a random-capacity channel always
// delivers every value exactly once, in order, regardless of the relative
// speeds of the two sides.
func TestChanDeliveryProperty(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	f := func() bool {
		n := 1 + r.Intn(40)
		capacity := r.Intn(5)
		prodDelay := Time(r.Intn(3)) * Millisecond
		consDelay := Time(r.Intn(3)) * Millisecond
		env := NewEnv()
		ch := NewChan[int](env, "c", capacity)
		var got []int
		env.Go("prod", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(prodDelay)
				ch.Send(p, i)
			}
			ch.Close(p)
		})
		env.Go("cons", func(p *Proc) {
			for {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Sleep(consDelay)
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
