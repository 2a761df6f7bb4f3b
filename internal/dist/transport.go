package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/resilience"
)

// sharedTransport is the tuned transport every dist HTTP client rides.
// http.DefaultTransport caps MaxIdleConnsPerHost at 2, which is exactly
// wrong for this topology: a coordinator holds a handful of workers and
// talks to each over many concurrent batch posts (plus hedges), and a
// worker pushing exchange ranges fans out to every peer at once — the
// third concurrent exchange with the same host tears its connection down
// on completion instead of pooling it, so steady state churns TCP
// handshakes. One process-wide transport also lets the coordinator and
// the worker push client share the same pool on daemons that are both.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   32,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: time.Second,
	ForceAttemptHTTP2:     true,
}

// client is the HTTP client of every dist hop: map batches, collects and
// peer pushes. No blanket timeout — callers bound each exchange with a
// context deadline, so one hung node stalls a batch for one attempt
// budget, not a blanket client timeout.
var client = &http.Client{Transport: sharedTransport}

// drainBody consumes and closes a response body so the keep-alive
// connection returns to the pool instead of being torn down. Bounded:
// a peer streaming garbage forfeits its connection rather than our time.
func drainBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	_ = body.Close()
}

// readSized is io.ReadAll with the buffer sized up front from the body's
// declared Content-Length (-1 when absent) instead of grown through it.
// The limit on what is read stays with r; sizeCap only keeps a lying
// header from reserving more than the caller would ever accept.
func readSized(r io.Reader, declared, sizeCap int64) ([]byte, error) {
	if declared <= 0 {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(declared, sizeCap)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// attemptTimeout derives the per-attempt deadline for one batch
// exchange: the configured AttemptTimeout, shrunk so the remaining
// attempts share the job context's remaining budget when that is
// tighter. The parent context still bounds everything — the floor only
// prevents a degenerate zero-length attempt.
func (c *Coordinator) attemptTimeout(ctx context.Context, attempt int) time.Duration {
	d := c.cfg.AttemptTimeout
	if d < 0 {
		return 0
	}
	if dl, ok := ctx.Deadline(); ok {
		left := c.cfg.MaxAttempts - attempt
		if left < 1 {
			left = 1
		}
		if share := time.Until(dl) / time.Duration(left); share < d {
			d = share
		}
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// sendBatch posts one map batch to target, hedging a straggler onto an
// alternate node when configured. It validates shape and digest of the
// winning response. On failure, avoid names every node the batch must
// not be re-placed on: the exclusions it came with plus every node it
// was attempted on (primary and hedges) — a batch never retries a node
// that already failed it.
func (c *Coordinator) sendBatch(ctx context.Context, job JobSpec, plan *core.Replay,
	bricks []int, target string, excluded map[string]bool, attempt int) (batchOutcome, map[string]bool, error) {
	type result struct {
		out batchOutcome
		err error
	}
	perAttempt := c.attemptTimeout(ctx, attempt)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resCh := make(chan result, len(c.reg.Snapshot().Members)+2)
	post := func(ctx context.Context, addr string) {
		out, err := c.postMap(ctx, perAttempt, job, plan, bricks, addr)
		resCh <- result{out: out, err: err}
	}
	c.batches.Add(1)
	avoid := map[string]bool{target: true}
	for n := range excluded {
		avoid[n] = true
	}
	go post(ctx, target)
	launched := 1
	var timer *time.Timer
	var timerC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		timer = time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}
	hedge := func() {
		timerC = nil
		// The hedge target comes from a fresh membership view: a node
		// that drained or expired since the batch launched is never
		// hedged onto.
		v, err := c.view()
		if err != nil {
			return
		}
		alt := v.pick(job, bricks[0], avoid, v.placeable)
		if alt == "" {
			return
		}
		// A hedge is an extra attempt like any retry: it costs a budget
		// token, so a straggling fleet cannot double its own load. Shed
		// hedges (the budget counter ticks) rather than fail the batch —
		// the primary is still in flight.
		if !c.budget.TryTake() {
			return
		}
		avoid[alt] = true
		c.hedges.Add(1)
		c.batches.Add(1)
		launched++
		// Hedges are speculative by definition: the worker's admission
		// gate sheds them first under pressure, so hedging never starves
		// interactive work fleet-wide.
		go post(resilience.WithPriority(ctx, resilience.Speculative), alt)
	}
	var firstErr error
	for {
		select {
		case a := <-resCh:
			if a.err == nil {
				if a.out.node != target {
					c.hedgeWins.Add(1)
				}
				return a.out, avoid, nil
			}
			// A deadline abort dooms every sibling attempt too (they share
			// the budget): tear the batch down now instead of waiting for
			// the straggler to discover the same expiry.
			if errors.Is(a.err, ErrDeadline) {
				return batchOutcome{}, avoid, a.err
			}
			if firstErr == nil {
				firstErr = a.err
			}
			launched--
			if launched == 0 {
				return batchOutcome{}, avoid, firstErr
			}
			// Attempts remain in flight (e.g. a straggling primary whose
			// hedge just died): don't sit behind the straggler — re-arm
			// the hedge toward the next untried node.
			if timer != nil && timerC == nil {
				timer.Reset(c.cfg.HedgeAfter)
				timerC = timer.C
			}
		case <-timerC:
			hedge()
		case <-ctx.Done():
			return batchOutcome{}, avoid, ctx.Err()
		}
	}
}

// post performs one HTTP exchange against a node, bounded by the
// per-attempt deadline, with the node health bookkeeping every dist hop
// shares: the node's breaker admits (or refuses) the exchange up front
// and every terminal path resolves it — Success, Failure, or Cancel
// when the outcome says nothing about the node. The job context's own
// deadline rides the request as HeaderDeadline (relative milliseconds,
// immune to clock skew) and the context's priority class as
// HeaderPriority, so the worker's admission gate and deadline checks see
// the same budget this coordinator does. Error bodies are drained
// before close so the keep-alive connection returns to the shared
// transport's pool instead of being torn down — under hedging the same
// worker sees many short exchanges, and re-dialing each one churns TCP
// state for nothing.
func (c *Coordinator) post(parent context.Context, perAttempt time.Duration,
	addr, path string, body []byte, contentType string) (*http.Response, []byte, error) {
	b := c.breaker(addr)
	if !b.Admit() {
		// Not a node fault (no evidence was gathered): the batch re-places
		// elsewhere, bounded by MaxAttempts and the retry budget.
		return nil, nil, fmt.Errorf("dist: circuit breaker open for %s", addr)
	}
	ctx := parent
	if perAttempt > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, perAttempt)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		b.Cancel()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if dl, ok := parent.Deadline(); ok {
		req.Header.Set(resilience.HeaderDeadline, resilience.EncodeDeadline(time.Until(dl)))
	}
	req.Header.Set(resilience.HeaderPriority, resilience.PriorityFrom(parent).String())
	resp, err := client.Do(req)
	if err != nil {
		// Classify before blaming the node. A caller-side cancel (hedge
		// winner, job teardown) or the job's own expired deadline says
		// nothing about the node's health: marking it down would put a
		// healthy straggler into backoff on every hedge win and poison
		// its placement affinity. An expired *per-attempt* deadline while
		// the parent is live, by contrast, IS a node problem (it hung
		// past its budget) and does mark it down.
		switch {
		case parent.Err() != nil:
			b.Cancel()
			if errors.Is(parent.Err(), context.DeadlineExceeded) {
				c.cfg.Metrics.DeadlineAbort()
				return nil, nil, fmt.Errorf("%w: %v", ErrDeadline, err)
			}
		case errors.Is(err, context.Canceled):
			// The attempt's own context was cancelled without the parent
			// being done — teardown racing completion; still no evidence.
			b.Cancel()
		default:
			c.markFailure(b)
		}
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		drainBody(resp.Body)
		switch {
		case resp.StatusCode == http.StatusGatewayTimeout:
			// The worker aborted past the request's end-to-end deadline:
			// a property of the budget, not the node. No retry can help.
			b.Cancel()
			c.cfg.Metrics.DeadlineAbort()
			return nil, nil, fmt.Errorf("%w: node %s: %s", ErrDeadline, addr, bytes.TrimSpace(msg))
		case resp.StatusCode >= 500:
			// Only other 5xx marks the node down.
			c.markFailure(b)
		default:
			// 429 is transient backpressure (the node is alive and telling
			// us so), 400 is a deterministic request problem, and 424 is a
			// reduce push that a *peer* refused — none of those say this
			// node is unhealthy, and opening breakers on healthy nodes
			// would degrade placement for every following job. The
			// response itself is breaker-level evidence of life. The batch
			// still fails here and re-places onto another node (or the
			// exchange falls back), bounded by MaxAttempts. A 429 also
			// marks the node busy, so placement passes it over for the
			// next second instead of sending it work it will shed.
			b.Success()
			if resp.StatusCode == http.StatusTooManyRequests {
				b.Busy()
			}
		}
		return nil, nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	payload, err := readSized(io.LimitReader(resp.Body, c.cfg.MaxResponseBytes+1), resp.ContentLength, c.cfg.MaxResponseBytes+1)
	if err != nil {
		_ = resp.Body.Close()
		if parent.Err() == nil {
			c.markFailure(b)
		} else {
			b.Cancel()
		}
		return nil, nil, fmt.Errorf("reading response: %w", err)
	}
	_ = resp.Body.Close()
	if int64(len(payload)) > c.cfg.MaxResponseBytes {
		c.markFailure(b)
		return nil, nil, fmt.Errorf("response exceeds %d bytes", c.cfg.MaxResponseBytes)
	}
	// Transport-level success: the breaker window records it and the
	// retry budget earns a credit. Content verification failures after
	// this point add their own Failure — in half-open that re-opens the
	// breaker, which is exactly right for a node answering garbage.
	c.markSuccess(b)
	return resp, payload, nil
}

// postMap performs one HTTP map exchange with full response verification,
// bounded by the per-attempt deadline.
func (c *Coordinator) postMap(parent context.Context, perAttempt time.Duration, job JobSpec,
	plan *core.Replay, bricks []int, addr string) (batchOutcome, error) {
	body, err := encodeMapRequest(MapRequest{Job: job, Bricks: bricks, GridCounts: plan.Grid.Counts})
	if err != nil {
		return batchOutcome{}, err
	}
	b := c.breaker(addr)
	resp, payload, err := c.post(parent, perAttempt, addr, MapPath, body, "application/json")
	if err != nil {
		return batchOutcome{}, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	out, err := c.verifyResponse(resp, payload, job, plan, bricks, addr)
	if err != nil {
		c.corrupt.Add(1)
		c.markFailure(b)
		return batchOutcome{}, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	return out, nil
}

// readStripes is the check every stripe-carrying response passes first:
// the body against its digest header, the decode under its
// Content-Encoding, and the fragment count against HeaderFragCount. The
// digest only covers transport; what the stripes may hold is the
// caller's to check.
func (c *Coordinator) readStripes(resp *http.Response, payload []byte) ([]core.BrickStripe, error) {
	wantDigest := resp.Header.Get(HeaderStripeDigest)
	if wantDigest == "" {
		return nil, fmt.Errorf("missing %s header", HeaderStripeDigest)
	}
	if got := PayloadDigest(payload); got != wantDigest {
		return nil, fmt.Errorf("stripe digest mismatch: body %s != header %s (corrupt response)", got, wantDigest)
	}
	wantFrags, err := countHeader(resp, HeaderFragCount)
	if err != nil {
		return nil, err
	}
	stripes, err := DecodePayload(resp.Header.Get("Content-Encoding"), payload, c.cfg.MaxResponseBytes)
	if err != nil {
		return nil, err
	}
	var frags int64
	for _, s := range stripes {
		frags += int64(len(s.Frags))
	}
	if frags != wantFrags {
		return nil, fmt.Errorf("fragment count mismatch: body %d != header %d", frags, wantFrags)
	}
	return stripes, nil
}

// countHeader reads a required non-negative count header: every map and
// collect response carries HeaderFragCount (the fragments the worker
// produced for the batch or range).
func countHeader(resp *http.Response, name string) (int64, error) {
	h := resp.Header.Get(name)
	n, err := strconv.ParseInt(h, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("missing or bad %s header %q", name, h)
	}
	return n, nil
}

// verifyResponse checks digest, fragment counts, brick coverage,
// canonical stripe order and per-fragment key bounds of a map response,
// and each unit's charges against the plan and the unit's stripe.
func (c *Coordinator) verifyResponse(resp *http.Response, payload []byte,
	job JobSpec, plan *core.Replay, bricks []int, addr string) (batchOutcome, error) {
	stripes, err := c.readStripes(resp, payload)
	if err != nil {
		return batchOutcome{}, err
	}
	want := make(map[int]bool, len(bricks))
	for _, id := range bricks {
		want[id] = true
	}
	keyRange := int32(job.Width) * int32(job.Height)
	prevBrick := -1
	for _, s := range stripes {
		if !want[s.Brick] {
			return batchOutcome{}, fmt.Errorf("stripe for unrequested brick %d", s.Brick)
		}
		// The wire format documents ascending brick IDs and the
		// compositor's depth-tie ordering silently depends on canonical
		// order — enforce it instead of trusting it (coverage alone
		// already rejects duplicates via the want set).
		if s.Brick <= prevBrick {
			return batchOutcome{}, fmt.Errorf(
				"stripe order violation: brick %d after brick %d (canonical order is ascending)", s.Brick, prevBrick)
		}
		prevBrick = s.Brick
		delete(want, s.Brick)
		// Bound every pixel key now: compositing indexes the counting
		// sort and the framebuffer by it, and a buggy or version-skewed
		// worker must surface as a retried corrupt response, not a panic
		// (the digest only covers transport).
		for _, f := range s.Frags {
			if f.Key < 0 || f.Key >= keyRange {
				return batchOutcome{}, fmt.Errorf(
					"brick %d fragment key %d outside image of %d pixels", s.Brick, f.Key, keyRange)
			}
		}
	}
	if len(want) > 0 {
		missing := make([]int, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sort.Ints(missing)
		return batchOutcome{}, fmt.Errorf("response missing bricks %v", missing)
	}
	charges, err := checkCharges(resp, plan, bricks)
	if err != nil {
		return batchOutcome{}, err
	}
	for i, s := range stripes {
		if err := plan.CheckStripe(charges[i], s.Frags); err != nil {
			return batchOutcome{}, err
		}
	}
	return batchOutcome{node: addr, stripes: stripes, charges: charges, bytes: int64(len(payload))}, nil
}

// checkCharges decodes a /map reply's HeaderUnitCharges and checks it
// covers exactly the batch's units, ascending, each record one its unit
// could have produced (core.Replay.Check) and, together, the fragments
// HeaderFragCount declares.
func checkCharges(resp *http.Response, plan *core.Replay, units []int) ([]core.UnitCharges, error) {
	charges, err := decodeCharges(resp.Header.Get(HeaderUnitCharges))
	if err != nil {
		return nil, err
	}
	if len(charges) != len(units) {
		return nil, fmt.Errorf("charges for %d units in a batch of %d", len(charges), len(units))
	}
	wantFrags, err := countHeader(resp, HeaderFragCount)
	if err != nil {
		return nil, err
	}
	var frags int64
	for i, ch := range charges {
		if ch.Unit != units[i] {
			return nil, fmt.Errorf("charges for unit %d where the batch has unit %d", ch.Unit, units[i])
		}
		if err := plan.Check(ch); err != nil {
			return nil, err
		}
		frags += ch.Fragments()
	}
	if frags != wantFrags {
		return nil, fmt.Errorf("charges hold %d fragments, header %d", frags, wantFrags)
	}
	return charges, nil
}

// verifyCollect checks digest and fragment count, decodes the sparse
// range image and bounds every pixel key to the reducer's range.
func (c *Coordinator) verifyCollect(resp *http.Response, payload []byte, tgt ReduceTarget) (collectOutcome, error) {
	stripes, err := c.readStripes(resp, payload)
	if err != nil {
		return collectOutcome{}, err
	}
	var frags []composite.Fragment
	for _, s := range stripes {
		frags = append(frags, s.Frags...)
	}
	for _, f := range frags {
		if f.Key < tgt.Lo || f.Key >= tgt.Hi {
			return collectOutcome{}, fmt.Errorf("collected pixel %d outside range [%d,%d)", f.Key, tgt.Lo, tgt.Hi)
		}
	}
	return collectOutcome{frags: frags, bytes: int64(len(payload))}, nil
}
