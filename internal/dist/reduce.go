package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/vec"
)

// exchangeID mints a session identifier unique enough that a stale
// exchange from a previous frame can never alias a live one.
func exchangeID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

// renderReduce runs one frame with the reduce phase on the workers
// (DESIGN.md §11): every reducer — a placeable worker — owns a
// contiguous pixel-key range, mappers push each range to its owner over
// /reduce (their own range never touches the wire), and the coordinator
// collects one sparse composited range image per reducer. No retries or
// hedging inside an exchange — a delivered push is not idempotent-free
// to re-place across nodes mid-flight, so any failure aborts the
// exchange and the caller falls back to the classic path, which has both.
func (c *Coordinator) renderReduce(ctx context.Context, job JobSpec, opt core.Options, plan *core.Replay,
	view clusterView, reducers []string) (*core.Result, Breakdown, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	numUnits := plan.Units()
	perNode := view.placeInitial(job, numUnits)
	n := len(reducers)
	pixels := int64(opt.Width) * int64(opt.Height)
	targets := make([]ReduceTarget, n)
	for i, a := range reducers {
		targets[i] = ReduceTarget{
			Addr: a,
			Lo:   int32(pixels * int64(i) / int64(n)),
			Hi:   int32(pixels * int64(i+1) / int64(n)),
		}
	}
	exID := exchangeID()

	// Map fan-out: one batch per node, each carrying the identical
	// reducer plan. All maps must land before any collect can complete,
	// so failures surface here first.
	type mapRes struct {
		charges []core.UnitCharges
		err     error
	}
	mapCh := make(chan mapRes, len(perNode))
	for a, bricks := range perNode {
		// A mapper that is not a reducer (its breaker turned between the
		// two reads) delivers every range over the wire.
		self := slices.IndexFunc(targets, func(t ReduceTarget) bool { return t.Addr == a })
		rp := &ReducePlan{Exchange: exID, Self: self, Reducers: targets}
		go func(a string, bricks []int) {
			charges, err := c.postMapReduce(ctx, job, plan, bricks, a, rp)
			mapCh <- mapRes{charges: charges, err: err}
		}(a, bricks)
	}
	bd := Breakdown{Reduced: true, Batches: int64(len(perNode)) + int64(n)}
	charges := make([]core.UnitCharges, numUnits)
	var mapErr error
	for range perNode {
		mr := <-mapCh
		if mr.err != nil {
			if mapErr == nil {
				mapErr = mr.err
				cancel() // tear down sibling maps; the exchange is lost
			}
			continue
		}
		for _, ch := range mr.charges {
			charges[ch.Unit] = ch
		}
	}
	if mapErr != nil {
		return nil, Breakdown{}, mapErr
	}

	// Collect fan-out: by now every range is fully delivered (maps
	// returned only after their pushes landed), so collects are one
	// round trip each.
	type collectRes struct {
		i   int
		out collectOutcome
		err error
	}
	colCh := make(chan collectRes, n)
	for i := range targets {
		go func(i int) {
			out, err := c.postCollect(ctx, job, exID, targets[i], numUnits, opt.Background)
			colCh <- collectRes{i: i, out: out, err: err}
		}(i)
	}
	outs := make([]collectOutcome, n)
	var colErr error
	for range targets {
		cr := <-colCh
		if cr.err != nil {
			if colErr == nil {
				colErr = cr.err
				cancel()
			}
			continue
		}
		outs[cr.i] = cr.out
	}
	if colErr != nil {
		return nil, Breakdown{}, colErr
	}

	// Assemble: untouched pixels keep the same pre-filled background as
	// the classic path; every collected pixel carries its final color.
	out := core.BlankImage(opt)
	for _, co := range outs {
		for _, f := range co.frags {
			out.SetKey(f.Key, vec.V4{X: f.R, Y: f.G, Z: f.B, W: f.A})
		}
		bd.CollectBytes += co.bytes
	}
	res, err := replay(plan, charges, false, out, &bd)
	if err != nil {
		return nil, Breakdown{}, err
	}
	bd.ExchangeBytes = res.Stats.BytesOnWire
	bd.WireBytes = bd.ExchangeBytes + bd.CollectBytes
	return res, bd, nil
}

// postMapReduce posts one reduce-mode map batch: the worker pushes its
// stripes into the exchange and answers with an empty body, the
// HeaderReduced marker and its units' charges.
func (c *Coordinator) postMapReduce(ctx context.Context, job JobSpec, plan *core.Replay,
	bricks []int, addr string, rp *ReducePlan) ([]core.UnitCharges, error) {
	body, err := encodeMapRequest(MapRequest{Job: job, Bricks: bricks, GridCounts: plan.Grid.Counts, Reduce: rp})
	if err != nil {
		return nil, err
	}
	c.batches.Add(1)
	b := c.breaker(addr)
	resp, _, err := c.post(ctx, c.attemptTimeout(ctx, 0), addr, MapPath, body, "application/json")
	if err != nil {
		return nil, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	if resp.Header.Get(HeaderReduced) != "1" {
		err = fmt.Errorf("map response lacks %s (stripes went nowhere)", HeaderReduced)
	}
	var charges []core.UnitCharges
	if err == nil {
		charges, err = checkCharges(resp, plan, bricks)
	}
	if err != nil {
		c.corrupt.Add(1)
		c.markFailure(b)
		return nil, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	return charges, nil
}

// collectOutcome is one reducer's composited range.
type collectOutcome struct {
	frags []composite.Fragment // sparse final pixels (Key + RGBA)
	bytes int64                // collect response bytes on the coordinator hop
}

// postCollect fetches and verifies one reducer's composited range.
func (c *Coordinator) postCollect(ctx context.Context, job JobSpec, exID string,
	tgt ReduceTarget, numBricks int, bg vec.V4) (collectOutcome, error) {
	body, err := json.Marshal(CollectRequest{
		Exchange:   exID,
		Lo:         tgt.Lo,
		Hi:         tgt.Hi,
		NumBricks:  numBricks,
		Background: [4]float32{bg.X, bg.Y, bg.Z, bg.W},
		Job:        job,
	})
	if err != nil {
		return collectOutcome{}, err
	}
	c.batches.Add(1)
	b := c.breaker(tgt.Addr)
	resp, payload, err := c.post(ctx, c.attemptTimeout(ctx, 0), tgt.Addr, CollectPath, body, "application/json")
	if err != nil {
		return collectOutcome{}, fmt.Errorf("dist: node %s: collect: %w", tgt.Addr, err)
	}
	out, err := c.verifyCollect(resp, payload, tgt)
	if err != nil {
		c.corrupt.Add(1)
		c.markFailure(b)
		return collectOutcome{}, fmt.Errorf("dist: node %s: collect: %w", tgt.Addr, err)
	}
	return out, nil
}
