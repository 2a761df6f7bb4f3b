package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/vec"
)

// The worker side of a distributed reduce. One exchange is one frame's
// reduce phase: every mapper pushes each reducer's pixel range to that
// reducer's /reduce endpoint (its own range is delivered in-process),
// the reducer accumulates per-brick fragment runs until it has seen all
// bricks, and the coordinator's /reduce/collect call composites the
// range and returns it as a sparse result stripe. Duplicate deliveries
// for a brick (a retried mapper, a hedged batch) are dropped: stripes
// are canonical per brick, so any duplicate carries identical bytes and
// first-write-wins cannot change the image.

// maxExchangeID bounds the exchange identifier length.
const maxExchangeID = 128

// CollectRequest asks a reducer for its composited pixel range.
type CollectRequest struct {
	Exchange string `json:"exchange"`
	// Lo and Hi restate the reducer's half-open pixel-key range; they
	// must match what the mappers pushed (a mismatch is a planning bug
	// and fails the exchange loudly).
	Lo int32 `json:"lo"`
	Hi int32 `json:"hi"`
	// NumBricks is the frame's map-unit count — the brick count in the
	// convex default, the partition's unit count otherwise: the reducer
	// is complete when it has a delivery from every unit.
	NumBricks int `json:"num_bricks"`
	// Background is the coordinator's composite background, passed
	// explicitly so both sides fold the exact same floats.
	Background [4]float32 `json:"background"`
	// Job rebinds the collect to the frame: its image bounds the range.
	Job JobSpec `json:"job"`
}

// ExchangeStats counts exchange events for /stats.
type ExchangeStats struct {
	Pushes      int64 `json:"pushes"`       // peer payloads accepted
	PushRejects int64 `json:"push_rejects"` // payloads refused (bad range, digest, session cap)
	Collects    int64 `json:"collects"`     // ranges composited and returned
	Expired     int64 `json:"expired"`      // sessions swept by TTL
	Sessions    int   `json:"sessions"`     // live sessions right now
}

// exchangeTable holds a worker's live exchange sessions.
type exchangeTable struct {
	maxSessions int
	ttl         time.Duration
	now         func() time.Time // test seam

	mu       sync.Mutex
	sessions map[string]*exchangeSession

	pushes, pushRejects, collects, expired int64
}

type exchangeSession struct {
	lo, hi int32

	mu      sync.Mutex
	bricks  map[int][]composite.Fragment
	updated time.Time
	arrived chan struct{} // closed and replaced on every new delivery
}

func newExchangeTable(maxSessions int, ttl time.Duration) *exchangeTable {
	return &exchangeTable{
		maxSessions: maxSessions,
		ttl:         ttl,
		now:         time.Now,
		sessions:    map[string]*exchangeSession{},
	}
}

// sweep drops sessions idle past the TTL (an exchange whose coordinator
// died mid-job must not pin fragment memory forever). Callers hold t.mu.
func (t *exchangeTable) sweep(now time.Time) {
	for id, s := range t.sessions {
		s.mu.Lock()
		stale := now.Sub(s.updated) > t.ttl
		s.mu.Unlock()
		if stale {
			delete(t.sessions, id)
			t.expired++
		}
	}
}

// join returns the session for an exchange ID, creating it on first
// contact (push and collect may arrive in any order). A range mismatch
// against an existing session is a planning bug, reported loudly.
func (t *exchangeTable) join(id string, lo, hi int32, now time.Time) (*exchangeSession, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.sessions[id]; ok {
		if s.lo != lo || s.hi != hi {
			return nil, http.StatusConflict, fmt.Errorf("dist: exchange %q range [%d,%d) conflicts with session [%d,%d)", id, lo, hi, s.lo, s.hi)
		}
		return s, 0, nil
	}
	if len(t.sessions) >= t.maxSessions {
		t.sweep(now)
	}
	if len(t.sessions) >= t.maxSessions {
		return nil, http.StatusTooManyRequests, fmt.Errorf("dist: %d exchange sessions in flight", len(t.sessions))
	}
	s := &exchangeSession{
		lo: lo, hi: hi,
		bricks:  map[int][]composite.Fragment{},
		updated: now,
		arrived: make(chan struct{}),
	}
	t.sessions[id] = s
	return s, 0, nil
}

func (t *exchangeTable) remove(id string) {
	t.mu.Lock()
	delete(t.sessions, id)
	t.mu.Unlock()
}

func (t *exchangeTable) stats() ExchangeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweep(t.now())
	return ExchangeStats{
		Pushes:      t.pushes,
		PushRejects: t.pushRejects,
		Collects:    t.collects,
		Expired:     t.expired,
		Sessions:    len(t.sessions),
	}
}

// deliver merges one mapper's stripes into the session,
// first-write-wins per brick, and wakes any waiting collect.
func (s *exchangeSession) deliver(stripes []core.BrickStripe, now time.Time) {
	s.mu.Lock()
	for _, st := range stripes {
		if _, ok := s.bricks[st.Brick]; !ok {
			s.bricks[st.Brick] = st.Frags
		}
	}
	s.updated = now
	close(s.arrived)
	s.arrived = make(chan struct{})
	s.mu.Unlock()
}

// validateRangeStripes checks a delivery against the session's range:
// no duplicate bricks inside one payload, every key inside [lo, hi).
func validateRangeStripes(stripes []core.BrickStripe, lo, hi int32) error {
	seen := make(map[int]bool, len(stripes))
	for _, s := range stripes {
		if seen[s.Brick] {
			return fmt.Errorf("dist: duplicate stripe for brick %d in one push", s.Brick)
		}
		seen[s.Brick] = true
		for _, f := range s.Frags {
			if f.Key < lo || f.Key >= hi {
				return fmt.Errorf("dist: brick %d fragment key %d outside range [%d,%d)", s.Brick, f.Key, lo, hi)
			}
		}
	}
	return nil
}

// filterRange projects stripes onto one reducer's pixel range,
// preserving brick order and per-brick emission order. Every brick stays
// present — an empty stripe is the reducer's proof the brick contributed
// nothing, which is what lets it count distinct bricks to completion.
func filterRange(stripes []core.BrickStripe, lo, hi int32) []core.BrickStripe {
	out := make([]core.BrickStripe, len(stripes))
	for i, s := range stripes {
		sub := core.BrickStripe{Brick: s.Brick}
		for _, f := range s.Frags {
			if f.Key >= lo && f.Key < hi {
				sub.Frags = append(sub.Frags, f)
			}
		}
		out[i] = sub
	}
	return out
}

// HandleReducePush serves ReducePath: one mapper's range payload.
func (wk *Worker) HandleReducePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	id := q.Get("ex")
	lo64, errLo := strconv.ParseInt(q.Get("lo"), 10, 32)
	hi64, errHi := strconv.ParseInt(q.Get("hi"), 10, 32)
	if id == "" || len(id) > maxExchangeID || errLo != nil || errHi != nil || lo64 < 0 || hi64 < lo64 {
		wk.rejectPush(w, http.StatusBadRequest, fmt.Errorf("dist: bad push parameters ex=%q lo=%q hi=%q", id, q.Get("lo"), q.Get("hi")))
		return
	}
	lo, hi := int32(lo64), int32(hi64)
	body, err := readSized(http.MaxBytesReader(w, r.Body, wk.cfg.MaxResponseBytes), r.ContentLength, wk.cfg.MaxResponseBytes+1)
	if err != nil {
		wk.rejectPush(w, http.StatusBadRequest, fmt.Errorf("dist: reading push payload: %w", err))
		return
	}
	if want := r.Header.Get(HeaderStripeDigest); want == "" || PayloadDigest(body) != want {
		wk.rejectPush(w, http.StatusBadRequest, fmt.Errorf("dist: push digest mismatch"))
		return
	}
	stripes, err := DecodePayload(r.Header.Get("Content-Encoding"), body, wk.cfg.MaxResponseBytes)
	if err != nil {
		wk.rejectPush(w, http.StatusBadRequest, err)
		return
	}
	if err := validateRangeStripes(stripes, lo, hi); err != nil {
		wk.rejectPush(w, http.StatusBadRequest, err)
		return
	}
	now := wk.ex.now()
	s, status, err := wk.ex.join(id, lo, hi, now)
	if err != nil {
		wk.rejectPush(w, status, err)
		return
	}
	s.deliver(stripes, now)
	wk.ex.mu.Lock()
	wk.ex.pushes++
	wk.ex.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (wk *Worker) rejectPush(w http.ResponseWriter, status int, err error) {
	wk.ex.mu.Lock()
	wk.ex.pushRejects++
	wk.ex.mu.Unlock()
	http.Error(w, err.Error(), status)
}

// HandleCollect serves CollectPath: wait until every brick's range
// delivery arrived, composite the range, return it as a sparse result
// stripe (pixel key + final RGBA; untouched pixels are omitted — the
// coordinator pre-fills the background). The request context bounds the
// wait: a dead mapper means the coordinator's per-attempt deadline
// cancels the collect and the job falls back to the classic path.
func (wk *Worker) HandleCollect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req CollectRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad collect request: %v", err), http.StatusBadRequest)
		return
	}
	if err := req.Job.Validate(wk.cfg.MaxEdge, wk.cfg.MaxPixels); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	keyRange := int32(req.Job.Width) * int32(req.Job.Height)
	if req.Exchange == "" || len(req.Exchange) > maxExchangeID ||
		req.Lo < 0 || req.Hi < req.Lo || req.Hi > keyRange ||
		req.NumBricks < 1 || req.NumBricks > 1<<20 {
		http.Error(w, "bad collect parameters", http.StatusBadRequest)
		return
	}
	s, status, err := wk.ex.join(req.Exchange, req.Lo, req.Hi, wk.ex.now())
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	for {
		s.mu.Lock()
		n := len(s.bricks)
		ch := s.arrived
		overrun := n > req.NumBricks
		if !overrun {
			for id := range s.bricks {
				if id >= req.NumBricks {
					overrun = true
					break
				}
			}
		}
		s.mu.Unlock()
		if overrun {
			wk.ex.remove(req.Exchange)
			http.Error(w, fmt.Sprintf("dist: exchange %q holds bricks outside grid of %d", req.Exchange, req.NumBricks), http.StatusConflict)
			return
		}
		if n == req.NumBricks {
			break
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			http.Error(w, fmt.Sprintf("dist: exchange %q incomplete: %d/%d bricks", req.Exchange, n, req.NumBricks), http.StatusGatewayTimeout)
			return
		}
	}

	frags := s.compositeRange(req)
	payload := encodeCF2([]core.BrickStripe{{Brick: 0, Frags: frags}})
	wk.ex.remove(req.Exchange)
	wk.ex.mu.Lock()
	wk.ex.collects++
	wk.ex.mu.Unlock()

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Encoding", EncodingColumnar2)
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	h.Set(HeaderFragCount, strconv.Itoa(len(frags)))
	h.Set(HeaderStripeDigest, PayloadDigest(payload))
	_, _ = w.Write(payload) // client hangup; the coordinator falls back
}

// compositeRange folds the session's fragments into one final color per
// touched pixel with the coordinator's own fold, in the canonical order:
// bricks ascending, emission order within a brick — so the folded
// floats are bit-identical to the coordinator-local path.
func (s *exchangeSession) compositeRange(req CollectRequest) (frags []composite.Fragment) {
	s.mu.Lock()
	ids := make([]int, 0, len(s.bricks))
	for id := range s.bricks {
		ids = append(ids, id)
	}
	runs := make([][]composite.Fragment, 0, len(ids))
	sort.Ints(ids)
	for _, id := range ids {
		runs = append(runs, s.bricks[id])
	}
	s.mu.Unlock()

	bg := vec.V4{X: req.Background[0], Y: req.Background[1], Z: req.Background[2], W: req.Background[3]}
	composite.FoldRange(runs, req.Lo, req.Hi, bg, func(k int32, c vec.V4) {
		frags = append(frags, composite.Fragment{Key: k, R: c.X, G: c.Y, B: c.Z, A: c.W})
	})
	return frags
}
