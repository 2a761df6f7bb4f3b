package sim

import "fmt"

// Resource is a FIFO server with fixed capacity, modeling contended
// hardware such as a PCIe link, a NIC, a disk arm or a pool of CPU cores.
type Resource struct {
	name     string
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity.
func (r *Resource) Capacity() int { return r.capacity }

// Acquire blocks p until a slot is free, FIFO order.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.block("acquiring " + r.name)
	// The releaser kept the slot in use on our behalf before unblocking us.
}

// Release frees one slot and wakes the next waiter, if any. It never
// blocks and may be called by any process.
func (r *Resource) Release(p *Proc) {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		p.unblock(next) // the slot transfers directly to the waiter
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for d, then releases: the standard
// FIFO-queueing-server pattern for serialised hardware.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}
