// Package schedule is a bounded worker-pool job scheduler for
// independent simulation jobs.
//
// The simulation kernel (internal/sim) is cooperative: one Env advances
// one process at a time, so a multi-frame animation or a parameter sweep
// executes serially in wall-clock no matter how many host cores exist —
// even though every frame and every sweep cell is an independent
// simulation. The scheduler closes that gap: each job instantiates its
// own cluster (cluster.Params.Instance) bound to a fresh Env, jobs run
// concurrently across real host cores, and the caller stitches per-job
// virtual times back into serial accounting by index order. Because every
// job is a self-contained deterministic simulation and results are
// combined in index order, parallel execution is bit-identical to serial
// execution — see the golden-image and determinism tests at the module
// root.
//
// Map is also the host's one parallel loop below the frame: a device's
// kernel blocks (gpu.Device) and an analytic source's z-slabs
// (volume.FuncSource.Fill) run on it, each result written to its own
// index, so every width gives the same bits.
package schedule

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the pool width for a fan-out of the given number of jobs:
// GOMAXPROCS, clamped to [1, jobs]. Run with GOMAXPROCS=1 for one job at
// a time.
func Workers(jobs int) int { return clamp(runtime.GOMAXPROCS(0), jobs) }

// clamp bounds a pool width to [1, jobs].
func clamp(workers, jobs int) int { return max(1, min(workers, jobs)) }

// DeviceWorkers splits GOMAXPROCS across a pool of the given width: each
// job's simulated devices get this many host cores for kernel-block
// execution, so frame-level and block-level parallelism compose instead
// of oversubscribing the machine. A pool of one (the serial degenerate
// case) keeps full block-level parallelism.
func DeviceWorkers(poolWidth int) int {
	if poolWidth < 1 {
		poolWidth = 1
	}
	dw := runtime.GOMAXPROCS(0) / poolWidth
	if dw < 1 {
		dw = 1
	}
	return dw
}

// Item is one streamed job result.
type Item[T any] struct {
	Index int
	Value T
	Err   error
}

// Map runs job(0..n-1) on a pool of `workers` goroutines and returns the
// results in index order. On failure it returns the error of the
// lowest-index failed job — exactly the error a serial loop would have
// stopped on — and cancels jobs that have not started yet (jobs already
// running complete). The pool width is clamped to [1, n]; a width of 1
// runs the jobs inline in index order, stopping at the first error like
// a plain loop.
func Map[T any](workers, n int, job func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers = clamp(workers, n); workers == 1 {
		for i := 0; i < n; i++ {
			v, err := job(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next, failed int64
	failed = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= n {
					return
				}
				if atomic.LoadInt64(&failed) >= 0 {
					continue // drain remaining indexes without running them
				}
				v, err := job(i)
				if err != nil {
					errs[i] = err
					atomic.StoreInt64(&failed, int64(i))
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	// First error by index: deterministic regardless of which goroutine
	// hit its error first in wall-clock.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stream runs jobs like Map but delivers every result on the returned
// channel in strict index order, each as soon as it and all its
// predecessors are done — a frame stream. Errors are delivered in-stream
// as items with Err set; all jobs run regardless (consumers that want
// fail-fast semantics use Map). The channel is closed after item n-1.
//
// A launcher starts the jobs in index order and queues each one's result
// slot for a deliverer that forwards the slots in order. The deliverer
// holds one slot and the queue at most workers-1, so at most `workers`
// jobs have started and not been received: that bounds both the jobs
// running at once and the results a slow consumer leaves resident.
//
// Closing `done` cancels the stream: jobs already running finish (a
// simulation cannot be interrupted mid-event), no new jobs start, and
// the output channel closes early. A consumer that stops reading MUST
// cancel (or drain) — otherwise delivery blocks forever. nil means not
// cancellable.
func Stream[T any](workers, n int, job func(int) (T, error), done <-chan struct{}) <-chan Item[T] {
	workers = clamp(workers, n)
	out := make(chan Item[T])
	slots := make(chan chan Item[T], workers-1)
	go func() {
		defer close(slots)
		for i := 0; i < n; i++ {
			slot := make(chan Item[T], 1)
			select {
			case slots <- slot:
			case <-done: // nil when not cancellable: never ready
				return
			}
			go func() {
				v, err := job(i)
				slot <- Item[T]{Index: i, Value: v, Err: err}
			}()
		}
	}()
	go func() {
		defer close(out)
		for slot := range slots {
			var item Item[T]
			select {
			case item = <-slot:
			case <-done:
				return
			}
			select {
			case out <- item:
			case <-done:
				return
			}
		}
	}()
	return out
}
