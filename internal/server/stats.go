package server

import (
	"sort"
	"sync"
	"time"

	"gvmr/internal/dist"
	"gvmr/internal/membership"
	"gvmr/internal/resilience"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// LatencyStats summarise request latency in milliseconds. Count is the
// lifetime number of successful requests (cache hits, coalesced, and
// renders); Mean/P50/P99/Max all describe the recent window (the last
// 8192 requests), so they track current service health rather than a
// cold-start outlier forever.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// summarizeLatency computes the nearest-rank quantiles, mean and max of
// samples (which it sorts in place) for /stats; count is reported
// verbatim.
func summarizeLatency(samples []time.Duration, count int64) LatencyStats {
	st := LatencyStats{Count: count}
	if len(samples) == 0 {
		return st
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	st.MeanMs = float64(total) / float64(len(samples)) / 1e6
	st.P50Ms = float64(quantile(samples, 0.50)) / 1e6
	st.P99Ms = float64(quantile(samples, 0.99)) / 1e6
	st.MaxMs = float64(samples[len(samples)-1]) / 1e6
	return st
}

// Stats is the /stats snapshot.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueCapacity int     `json:"queue_capacity"` // waiting slots beyond the workers
	Draining      bool    `json:"draining"`
	Ready         bool    `json:"ready"`

	Requests  int64 `json:"requests"`
	Renders   int64 `json:"renders"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected_overload"`
	Errors    int64 `json:"errors"`
	// MapJobs counts /map batches served for remote coordinators (this
	// node acting as a cluster worker).
	MapJobs int64 `json:"map_jobs"`
	// Exchange counts distributed-reduce activity on this node acting as
	// a reducer: stripe pushes received from peer mappers, collects
	// served to coordinators, and sessions expired or live. Omitted
	// until the first exchange touches this node.
	Exchange *dist.ExchangeStats `json:"exchange,omitempty"`

	// WorkerNodes and Dist describe coordinator mode: the current
	// registered worker count and the distributed-layer event counters.
	// Membership is the full registry view — per-node state (alive /
	// draining) and lease age, plus lifetime join / drain / eviction
	// counters. A node's load is on its own /stats, not here.
	// LocalFallbacks counts renders served in-process because no
	// eligible worker existed.
	WorkerNodes    int                    `json:"worker_nodes,omitempty"`
	Dist           *dist.CoordinatorStats `json:"dist,omitempty"`
	Membership     *membership.Stats      `json:"membership,omitempty"`
	LocalFallbacks int64                  `json:"local_fallbacks,omitempty"`

	// Resilience is the overload-policy ledger: breaker opens, half-open
	// probes, sheds by priority class, retry-budget exhaustions, degraded
	// frames, and deadline aborts. Always present — a steady zero row is
	// itself the evidence the chaos tests assert against.
	Resilience *resilience.Snapshot `json:"resilience"`

	// InFlight renders hold worker slots; QueueDepth renders are admitted
	// and waiting for one.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`

	RenderWallSeconds float64 `json:"render_wall_seconds"`

	Cache   FrameCacheStats   `json:"frame_cache"`
	Staging volume.CacheStats `json:"staging_cache"`
	// Pager aggregates demand-paging counters over every registered
	// out-of-core (v2) volume file; omitted when none is registered.
	Pager   *volume.PagerStats `json:"pager,omitempty"`
	Latency LatencyStats       `json:"latency"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Workers:           s.workers,
		QueueCapacity:     cap(s.queue) - s.workers,
		Draining:          s.draining,
		Requests:          s.requests,
		Renders:           s.renders,
		Coalesced:         s.coalesced,
		Rejected:          s.rejected,
		Errors:            s.errored,
		MapJobs:           s.mapJobs,
		LocalFallbacks:    s.localFallbacks,
		RenderWallSeconds: s.renderWall.Seconds(),
	}
	s.mu.Unlock()
	st.Ready, _ = s.Ready()
	if ex := s.worker.ExchangeStats(); ex != (dist.ExchangeStats{}) {
		st.Exchange = &ex
	}
	if s.coord != nil {
		st.WorkerNodes = s.coord.Nodes()
		ds := s.coord.Stats()
		st.Dist = &ds
		ms := s.registry.Stats()
		st.Membership = &ms
	}
	st.InFlight = len(s.sem)
	if d := len(s.queue) - st.InFlight; d > 0 {
		st.QueueDepth = d
	}
	st.Cache = s.cache.Stats()
	st.Staging = volume.Cache.Stats()
	st.Pager = dataset.FilePagerStats()
	st.Latency = s.lat.stats()
	rs := s.res.Snapshot()
	st.Resilience = &rs
	return st
}

// Resilience exposes the shared overload-policy counters (tests inject
// faults and assert on these).
func (s *Service) Resilience() *resilience.Metrics { return s.res }

// latencyRing keeps the last N request latencies and derives quantiles on
// demand — small, lock-cheap, good enough for a /stats endpoint.
type latencyRing struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	filled  bool
	count   int64
}

func newLatencyRing(n int) *latencyRing {
	return &latencyRing{samples: make([]time.Duration, n)}
}

func (l *latencyRing) add(d time.Duration) {
	l.mu.Lock()
	l.samples[l.next] = d
	l.next++
	if l.next == len(l.samples) {
		l.next = 0
		l.filled = true
	}
	l.count++
	l.mu.Unlock()
}

func (l *latencyRing) stats() LatencyStats {
	l.mu.Lock()
	n := l.next
	if l.filled {
		n = len(l.samples)
	}
	window := make([]time.Duration, n)
	copy(window, l.samples[:n])
	count := l.count
	l.mu.Unlock()
	return summarizeLatency(window, count)
}

// quantile picks the nearest-rank quantile from sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
