package dist

import "gvmr/internal/resilience"

// clusterView is one placement decision's consistent view of the fleet:
// the eligible members and the consistent-hash ring over exactly them.
type clusterView struct {
	addrs []string                       // eligible (alive) addrs, ring index order
	ring  *ring                          // hash ring over addrs
	nodes map[string]*resilience.Breaker // per-node breakers, shared across views
}

// placeable reports whether placement may prefer addr right now: its
// breaker admits traffic and no recent 429 marked it busy.
func (v clusterView) placeable(a string) bool { return v.nodes[a].Placeable() }

// placeableAddrs lists the placeable nodes in ring index order.
func (v clusterView) placeableAddrs() []string {
	var out []string
	for _, a := range v.addrs {
		if v.placeable(a) {
			out = append(out, a)
		}
	}
	return out
}

// view snapshots the registry and returns the placement view, rebuilding
// the cached ring only when membership actually changed. Breakers
// survive membership churn (they are keyed by address), so a node that
// rejoins after a crash still starts from its recent failure history.
func (c *Coordinator) view() (clusterView, error) {
	snap := c.reg.Snapshot()
	eligible := snap.Eligible()
	if len(eligible) == 0 {
		return clusterView{}, ErrNoWorkers
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ringCache == nil || c.ringVer != snap.Version {
		c.ringCache = newRing(eligible)
		c.ringAddrs = eligible
		c.ringVer = snap.Version
	}
	v := clusterView{
		addrs: c.ringAddrs,
		ring:  c.ringCache,
		nodes: make(map[string]*resilience.Breaker, len(c.ringAddrs)),
	}
	for _, a := range c.ringAddrs {
		v.nodes[a] = c.breakerLocked(a)
	}
	return v, nil
}

// markFailure records one node-fault exchange: the breaker counts it
// (and may open) and the node_downs stat ticks. Caller-cancels, deadline
// aborts and 4xx responses never come here — they say nothing about the
// node's health.
func (c *Coordinator) markFailure(b *resilience.Breaker) {
	b.Failure()
	c.nodeDowns.Add(1)
}

// markSuccess records one healthy exchange: the breaker's window gets a
// success and the retry budget earns a credit.
func (c *Coordinator) markSuccess(b *resilience.Breaker) {
	b.Success()
	c.budget.Credit()
}

// anyNode is the last preference of a walk that must place somewhere:
// better a likely-dead try than none.
func anyNode(string) bool { return true }

// pick is the one ring walk every placement decision takes — initial,
// retry re-placement and hedge. It walks brick's ring sequence once per
// preference, in order, and returns the first node not in skip that the
// preference accepts; "" when none does. Draining and evicted nodes are
// not in the view at all — membership is authoritative, breakers only a
// hint.
func (v clusterView) pick(job JobSpec, brick int, skip map[string]bool, prefs ...func(string) bool) string {
	seq := v.ring.sequence(brickKey(job, brick))
	for _, ok := range prefs {
		for _, i := range seq {
			if a := v.addrs[i]; !skip[a] && ok(a) {
				return a
			}
		}
	}
	return ""
}

// placeInitial runs the initial placement: consistent hash with bounded
// loads. Each brick walks its ring sequence and takes the first healthy
// node still under the per-node cap — affinity when the cluster is
// balanced, guaranteed balance always (no node maps more than
// ⌈bricks/healthy⌉ while others idle, so adding nodes always shrinks
// the map phase); failing that, the first healthy node; failing that,
// the first node at all. The cap is recomputed from the eligible set on
// every render, which is how a join or drain rebalances the next frame.
// Brick lists come back sorted (bricks are placed in ID order).
func (v clusterView) placeInitial(job JobSpec, numBricks int) map[string][]int {
	perNode := make(map[string][]int)
	healthyNow := len(v.placeableAddrs())
	if healthyNow == 0 {
		healthyNow = len(v.addrs) // every breaker open: place anyway
	}
	cap := (numBricks + healthyNow - 1) / healthyNow
	underCap := func(a string) bool { return v.placeable(a) && len(perNode[a]) < cap }
	for id := 0; id < numBricks; id++ {
		a := v.pick(job, id, nil, underCap, v.placeable, anyNode)
		perNode[a] = append(perNode[a], id)
	}
	return perNode
}

// breaker returns the circuit breaker for addr, creating it if needed (a
// response may arrive after the member already left the registry).
func (c *Coordinator) breaker(addr string) *resilience.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerLocked(addr)
}

func (c *Coordinator) breakerLocked(addr string) *resilience.Breaker {
	b, ok := c.breakers[addr]
	if !ok {
		b = resilience.NewBreaker(c.cfg.Breaker)
		c.breakers[addr] = b
	}
	return b
}

// BreakerState reports addr's breaker position ("closed" when the node
// has never been exchanged with) — tests and /stats diagnostics.
func (c *Coordinator) BreakerState(addr string) resilience.BreakerState {
	return c.breaker(addr).State()
}
