package server

import (
	"context"

	"gvmr/internal/resilience"
)

// beginJob admits one unit of work against the drain state; every
// successful beginJob must be paired with endJob.
func (s *Service) beginJob() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.drainRejected++
		return ErrDraining
	}
	s.inflight++
	return nil
}

func (s *Service) endJob() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
}

// admit enforces the backpressure contract for one unit of work (a local
// render or a /map batch): claim a queue token immediately or fail with
// ErrOverloaded, then wait for a render-worker slot. Close interrupts the
// wait with ErrDraining, and ctx ending interrupts it with ctx.Err(); both
// return the token at once. The token covers waiting AND working; the
// returned release frees slot then token.
//
// Shedding is by priority, lowest class first: speculative work (hedge
// duplicates) is refused once the queue is half full, batch at three
// quarters, and only interactive work may fill it — so under overload the
// capacity that remains serves the humans. The fill reads are racy
// against concurrent admits, which is fine: the thresholds are pressure
// valves, not invariants, and the queue send below is the hard bound.
func (s *Service) admit(ctx context.Context, pri resilience.Priority) (release func(), err error) {
	fill, capQ := len(s.queue), cap(s.queue)
	shed := false
	switch pri {
	case resilience.Speculative:
		shed = fill >= capQ/2
	case resilience.Batch:
		shed = fill >= capQ*3/4
	}
	if shed {
		s.res.Shed(pri)
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	select {
	case s.queue <- struct{}{}:
	default:
		s.res.Shed(pri)
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	select {
	case s.sem <- struct{}{}:
	case <-s.closed:
		<-s.queue
		return nil, ErrDraining
	case <-ctx.Done():
		<-s.queue
		return nil, ctx.Err()
	}
	return func() {
		<-s.sem
		<-s.queue
	}, nil
}

// Close drains the service: new renders fail with ErrDraining
// (cache hits and coalesced joins of already-running renders still
// succeed), requests already admitted finish, and Close returns when the
// last one has. ctx bounds the wait.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	idle := s.inflight == 0
	s.mu.Unlock()
	if !already {
		close(s.closed)
		if idle {
			close(s.drained)
		}
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Close has begun — a cheap flag read for
// health probes, without the full Stats snapshot.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SetReadinessProbe installs an extra readiness input (the daemon wires
// the membership agent's state in: a worker that lost its lease or is
// draining reports not-ready while staying live).
func (s *Service) SetReadinessProbe(fn func() (ok bool, reason string)) {
	s.mu.Lock()
	s.readyProbe = fn
	s.mu.Unlock()
}

// Ready reports whether this node should receive new traffic. Liveness
// (/healthz) is separate and unconditional: a draining node is alive —
// restarting it would kill the in-flight work the drain exists to
// protect — it just must not be routed new requests.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	draining, probe := s.draining, s.readyProbe
	s.mu.Unlock()
	if draining {
		return false, "draining"
	}
	if probe != nil {
		if ok, reason := probe(); !ok {
			return false, reason
		}
	}
	return true, ""
}
