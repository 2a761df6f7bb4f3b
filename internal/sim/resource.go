package sim

import "fmt"

// Resource is a FIFO server with fixed capacity, modeling contended
// hardware such as a PCIe link, a NIC, a disk arm or a pool of CPU cores.
// It records utilization (busy time integral) for reporting.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  []*Proc

	// accounting
	busyTotal   Time // time-integral of (inUse > 0)
	acquires    int64
	waitTotal   Time // total time processes spent queued
	lastChanged Time
	useIntegral float64 // time-integral of inUse, for mean occupancy
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

func (r *Resource) account() {
	now := r.env.now
	dt := now - r.lastChanged
	if dt > 0 {
		r.useIntegral += float64(r.inUse) * dt.Seconds()
		if r.inUse > 0 {
			r.busyTotal += dt
		}
	}
	r.lastChanged = now
}

// Acquire blocks p until a slot is free, FIFO order.
func (r *Resource) Acquire(p *Proc) {
	start := p.Now()
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.account()
		r.inUse++
		r.acquires++
		return
	}
	r.waiters = append(r.waiters, p)
	p.block("acquiring " + r.name)
	// The releaser incremented inUse on our behalf before unblocking us.
	r.waitTotal += p.Now() - start
	r.acquires++
}

// Release frees one slot and wakes the next waiter, if any. It never
// blocks and may be called by any process.
func (r *Resource) Release(p *Proc) {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	r.account()
	r.inUse--
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.account()
		r.inUse++ // slot transfers directly to the waiter
		p.unblock(next)
	}
}

// Use acquires the resource, holds it for d, then releases: the standard
// FIFO-queueing-server pattern for serialised hardware.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// BusyTime returns the accumulated time during which at least one slot was
// held, up to the current instant.
func (r *Resource) BusyTime() Time {
	r.account()
	return r.busyTotal
}

// WaitTime returns the total queueing delay experienced by acquirers.
func (r *Resource) WaitTime() Time { return r.waitTotal }

// Acquires returns the number of completed Acquire calls.
func (r *Resource) Acquires() int64 { return r.acquires }

// Utilization returns mean occupancy / capacity over [0, now].
func (r *Resource) Utilization() float64 {
	r.account()
	total := r.env.now.Seconds()
	if total <= 0 {
		return 0
	}
	return r.useIntegral / total / float64(r.capacity)
}
