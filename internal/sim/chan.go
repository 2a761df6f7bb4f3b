package sim

import "fmt"

// Chan is a typed channel with blocking semantics in virtual time. A
// capacity of zero gives rendezvous semantics: Send completes only when a
// receiver takes the value. All waiter queues are FIFO, preserving
// determinism.
type Chan[T any] struct {
	name   string
	cap    int
	buf    []T
	sendQ  []sendWaiter[T]
	recvQ  []*Proc
	closed bool
}

type sendWaiter[T any] struct {
	p *Proc
	v T
}

// NewChan creates a channel with the given buffer capacity (>= 0).
func NewChan[T any](env *Env, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic(fmt.Sprintf("sim: chan %q capacity %d < 0", name, capacity))
	}
	return &Chan[T]{name: name, cap: capacity}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Send delivers v, blocking p in virtual time while the buffer is full (or,
// for capacity 0, until a receiver arrives). Sending on a closed channel
// panics, mirroring Go channel semantics.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic(fmt.Sprintf("sim: send on closed chan %q", c.name))
	}
	if len(c.recvQ) > 0 {
		// Direct hand-off to the longest-waiting receiver.
		r := c.recvQ[0]
		c.recvQ = c.recvQ[1:]
		r.recvVal = v
		r.recvOK = true
		p.unblock(r)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	c.sendQ = append(c.sendQ, sendWaiter[T]{p: p, v: v})
	p.block("sending " + c.name)
}

// Recv takes the next value, blocking p while the channel is empty. It
// returns ok=false when the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[1:]
		if len(c.sendQ) > 0 {
			// A blocked sender's value now fits in the buffer.
			w := c.sendQ[0]
			c.sendQ = c.sendQ[1:]
			c.buf = append(c.buf, w.v)
			p.unblock(w.p)
		}
		return v, true
	}
	if len(c.sendQ) > 0 { // capacity 0 rendezvous
		w := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		p.unblock(w.p)
		return w.v, true
	}
	if c.closed {
		var zero T
		return zero, false
	}
	c.recvQ = append(c.recvQ, p)
	p.block("receiving " + c.name)
	if !p.recvOK {
		var zero T
		p.recvVal = nil
		return zero, false
	}
	v := p.recvVal.(T)
	p.recvVal = nil
	p.recvOK = false
	return v, true
}

// Close marks the channel closed. Blocked receivers wake with ok=false.
// Values already buffered (or held by blocked senders) are still delivered
// to future receivers. Closing twice panics.
func (c *Chan[T]) Close(p *Proc) {
	if c.closed {
		panic(fmt.Sprintf("sim: close of closed chan %q", c.name))
	}
	c.closed = true
	for _, r := range c.recvQ {
		r.recvOK = false
		p.unblock(r)
	}
	c.recvQ = nil
}

// WaitGroup counts outstanding work items in virtual time, mirroring
// sync.WaitGroup.
type WaitGroup struct {
	name    string
	count   int
	waiters []*Proc
}

// NewWaitGroup creates a WaitGroup with zero count.
func NewWaitGroup(env *Env, name string) *WaitGroup {
	return &WaitGroup{name: name}
}

// Add increments the counter by n (n may be negative, like sync.WaitGroup).
func (wg *WaitGroup) Add(p *Proc, n int) {
	wg.count += n
	if wg.count < 0 {
		panic(fmt.Sprintf("sim: waitgroup %q negative count", wg.name))
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			p.unblock(w)
		}
		wg.waiters = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done(p *Proc) { wg.Add(p, -1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.block("waiting " + wg.name)
}
