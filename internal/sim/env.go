package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// event is a scheduled wake-up for a process at a virtual instant.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Env is a simulation environment: a virtual clock plus the set of live
// processes. The zero value is not usable; construct with NewEnv.
type Env struct {
	now     Time
	seq     uint64
	queue   eventHeap
	live    map[*Proc]struct{}
	current *Proc
	fatal   error
	running bool
}

// NewEnv returns a fresh environment with the clock at zero.
func NewEnv() *Env {
	return &Env{live: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// schedule enqueues a wake-up for p at time t (clamped to now).
func (e *Env) schedule(t Time, p *Proc) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, event{at: t, seq: e.seq, proc: p})
}

// Go spawns a process that begins executing fn at the current virtual time.
// It may be called before Run or from inside another process.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
		state:  "starting",
	}
	e.live[p] = struct{}{}
	go p.run(fn)
	e.schedule(e.now, p)
	return p
}

// resumeProc hands control to p and waits for it to park again.
func (e *Env) resumeProc(p *Proc) {
	e.current = p
	p.resume <- struct{}{}
	<-p.parked
	e.current = nil
	if p.done {
		delete(e.live, p)
		if p.err != nil && e.fatal == nil {
			e.fatal = p.err
		}
	}
}

// Run executes events until none remain. It returns an error if a process
// panicked or if live processes remain blocked with an empty event queue
// (deadlock). Run may be called again after it returns to continue a
// simulation extended with new processes.
func (e *Env) Run() error {
	return e.runWhile(func(Time) bool { return true })
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to t.
func (e *Env) RunUntil(t Time) error {
	err := e.runWhile(func(at Time) bool { return at <= t })
	if err == nil && e.now < t {
		e.now = t
	}
	return err
}

func (e *Env) runWhile(keep func(Time) bool) error {
	if e.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 {
		if !keep(e.queue[0].at) {
			return nil
		}
		ev := heap.Pop(&e.queue).(event)
		if ev.proc.done {
			continue
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.resumeProc(ev.proc)
		if e.fatal != nil {
			return e.fatal
		}
	}
	if len(e.live) > 0 {
		return e.deadlockError()
	}
	return nil
}

func (e *Env) deadlockError() error {
	names := make([]string, 0, len(e.live))
	for p := range e.live {
		names = append(names, fmt.Sprintf("%s (%s)", p.name, p.state))
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at %v: %d blocked process(es): %v", e.now, len(names), names)
}

// Proc is a simulation process. All methods must be called from within the
// process's own function.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	parked chan struct{}
	state  string
	done   bool
	err    error

	// blocked-wait delivery slots, used by Chan.
	recvVal any
	recvOK  bool
}

func (p *Proc) run(fn func(*Proc)) {
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
		p.done = true
		p.state = "done"
		p.parked <- struct{}{}
	}()
	fn(p)
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// yield parks the process and transfers control to the scheduler. The
// process resumes when the scheduler pops an event for it (or when another
// process unblocks it).
func (p *Proc) yield(state string) {
	p.state = state
	p.parked <- struct{}{}
	<-p.resume
	p.state = "running"
}

// Sleep advances the process by d in virtual time. Negative durations are
// treated as zero (the process still yields, giving same-time events a
// chance to run first in FIFO order).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, p)
	p.yield("sleeping")
}

// WaitUntil sleeps until virtual time t. If t is in the past it yields at
// the current time.
func (p *Proc) WaitUntil(t Time) {
	p.env.schedule(t, p)
	p.yield("sleeping")
}

// block parks the process without scheduling a wake-up; some other process
// must call unblock. state describes what the process waits on, used in
// deadlock reports.
func (p *Proc) block(state string) {
	p.yield(state)
}

// unblock schedules other to resume at the current time.
func (p *Proc) unblock(other *Proc) {
	p.env.schedule(p.env.now, other)
}
