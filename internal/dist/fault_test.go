package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"gvmr/internal/volume/dataset"
)

// Fault-injection suite: a worker killed mid-job, a straggler, and a
// corrupted response must each leave the rendered bytes untouched — the
// coordinator retries, re-places or hedges, and the final digest equals
// the single-process render's. Runs under -race in CI.

// TestWorkerDeathMidJobRetried kills node 0 at its first map request —
// the connection aborts mid-exchange, exactly like a process crash — and
// keeps it dead. The job must complete on the survivors with identical
// bits.
func TestWorkerDeathMidJobRetried(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 64, 6, 20, true)
	want := directDigest(t, job)

	var died atomic.Bool
	addrs := startWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			died.Store(true)
			panic(http.ErrAbortHandler) // connection reset, no response
		})
	})
	coord := newTestCoordinator(t, addrs, nil)
	res, _, err := coord.Render(context.Background(), job)
	if err != nil {
		t.Fatalf("render with dead node: %v", err)
	}
	if got := res.Image.Digest(); got != want {
		t.Errorf("digest after node death %s != direct %s", got, want)
	}
	if !died.Load() {
		// 6 bricks over 3 nodes with bounded loads: every node gets 2.
		t.Fatal("placement sent node 0 nothing; nothing was killed")
	}
	st := coord.Stats()
	if st.Retries < 1 || st.NodeDowns < 1 {
		t.Errorf("death not recorded: %+v", st)
	}
}

// TestWorkerDeathMidResponse is the nastier variant: node 0 advertises a
// full response but the body truncates partway (the process died while
// streaming). The digest check catches it; the batch re-places.
func TestWorkerDeathMidResponse(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 64, 6, 45, false)
	want := directDigest(t, job)

	addrs := startWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			body := rec.Body.Bytes()
			w.WriteHeader(rec.Code)
			if len(body) > 8 {
				_, _ = w.Write(body[:len(body)/2])
				panic(http.ErrAbortHandler)
			}
			_, _ = w.Write(body)
		})
	})
	coord := newTestCoordinator(t, addrs, nil)
	res, _, err := coord.Render(context.Background(), job)
	if err != nil {
		t.Fatalf("render with truncating node: %v", err)
	}
	if got := res.Image.Digest(); got != want {
		t.Errorf("digest after truncated response %s != direct %s", got, want)
	}
	if st := coord.Stats(); st.Retries < 1 {
		t.Errorf("truncation not retried: %+v", st)
	}
}

// TestDelayedWorkerHedged wires a straggler: node 0 sits on every request
// for far longer than the hedge delay. The coordinator must duplicate the
// batch onto a healthy node, win the race there, and produce identical
// bits.
func TestDelayedWorkerHedged(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 64, 6, 70, true)
	want := directDigest(t, job)

	addrs := startWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Read the request first (a real worker decodes the JSON
			// before rendering); only then does the server's background
			// read deliver the hedge winner's cancellation.
			body, _ := io.ReadAll(r.Body)
			select {
			case <-time.After(10 * time.Second):
			case <-r.Context().Done():
				return // hedge winner cancelled us
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, r)
		})
	})
	coord := newTestCoordinator(t, addrs, func(c *CoordinatorConfig) {
		c.HedgeAfter = 25 * time.Millisecond
	})
	start := time.Now()
	res, _, err := coord.Render(context.Background(), job)
	if err != nil {
		t.Fatalf("render with straggler: %v", err)
	}
	if got := res.Image.Digest(); got != want {
		t.Errorf("digest with hedging %s != direct %s", got, want)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("hedge did not rescue the straggler: render took %v", elapsed)
	}
	st := coord.Stats()
	if st.Hedges < 1 || st.HedgeWins < 1 {
		t.Errorf("no hedge recorded: %+v", st)
	}
}

// TestCorruptResponseRetried flips one payload byte on node 2's first
// response while keeping the advertised digest. The coordinator must
// detect the corruption, count it, and re-place the batch — bits
// identical.
func TestCorruptResponseRetried(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 64, 6, 110, false)
	want := directDigest(t, job)

	var corrupted atomic.Int64
	addrs := startWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 2 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if corrupted.Add(1) == 1 && len(body) > 10 {
				body[10] ^= 0x40 // silent bit flip, digest header untouched
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	})
	coord := newTestCoordinator(t, addrs, nil)
	res, _, err := coord.Render(context.Background(), job)
	if err != nil {
		t.Fatalf("render with corrupting node: %v", err)
	}
	if got := res.Image.Digest(); got != want {
		t.Errorf("digest after corruption %s != direct %s", got, want)
	}
	if corrupted.Load() >= 1 {
		if st := coord.Stats(); st.Corrupt < 1 || st.Retries < 1 {
			t.Errorf("corruption not detected/retried: %+v", st)
		}
	}
}

// TestCorruptStoredPlaneRetried flips a byte of a stored noise plane in
// node 1's first compressed response that stores one. Such a payload
// still decodes — to wrong colours — so only the stripe digest stands
// between it and the framebuffer: the coordinator must count it corrupt
// and re-place the batch, and the frame must keep the direct render's
// bits.
func TestCorruptStoredPlaneRetried(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 96, 4, 30, true)
	want := directDigest(t, job)

	var flipped atomic.Int64
	addrs := startWorkers(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Header().Get("Content-Encoding") == EncodingColumnar2 &&
				len(flateSection(t, body)) < len(body) && flipped.Load() == 0 {
				body[len(body)-1] ^= 0x01 // last stored plane, digest header untouched
				if _, err := DecodePayload(EncodingColumnar2, body, 1<<30); err != nil {
					t.Errorf("payload with a flipped stored byte no longer decodes: %v", err)
				}
				flipped.Add(1)
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	})
	coord := newTestCoordinator(t, addrs, nil)
	res, _, err := coord.Render(context.Background(), job)
	if err != nil {
		t.Fatalf("render with a corrupting node: %v", err)
	}
	if flipped.Load() != 1 {
		t.Fatal("node 1 sent no payload with stored planes: nothing was flipped")
	}
	if got := res.Image.Digest(); got != want {
		t.Errorf("digest after a flipped stored plane %s != direct %s", got, want)
	}
	if st := coord.Stats(); st.Corrupt != 1 || st.Retries < 1 {
		t.Errorf("flipped stored plane not caught and retried: %+v", st)
	}
}

// TestMalformedHopCountedCorrupt: node 0 answers one kind of hop
// malformed — without HeaderFragCount or HeaderUnitCharges, with charges
// that disagree with what it mapped, or with its stripes in the identity
// layout under its own label (re-digested, so only the label is wrong).
// The coordinator must
// count the reply corrupt and never composite it: a classic /map batch
// is re-placed, a broken exchange falls back to the classic path, and
// the frame keeps the direct render's bits.
func TestMalformedHopCountedCorrupt(t *testing.T) {
	job := testJob(t, dataset.Skull, 32, 64, 4, 30, true)
	want := directDigest(t, job)
	without := func(name string) func(*testing.T, http.Header, []byte) []byte {
		return func(t *testing.T, h http.Header, body []byte) []byte {
			if h.Get(name) == "" {
				t.Errorf("worker reply lacks %s before tampering", name)
			}
			h.Del(name)
			return body
		}
	}
	noFragCount := without(HeaderFragCount)
	// hostile claims one more fragment for the batch's first unit than
	// it has, in the records and the count header alike.
	hostile := func(t *testing.T, h http.Header, body []byte) []byte {
		charges, err := decodeCharges(h.Get(HeaderUnitCharges))
		if err != nil {
			t.Fatalf("worker charges do not decode: %v", err)
		}
		for u := range charges {
			if b := &charges[u].Bricks[0]; b.Ran {
				b.Frags[0]++
				break
			}
		}
		frags, _ := strconv.Atoi(h.Get(HeaderFragCount))
		h.Set(HeaderFragCount, strconv.Itoa(frags+1))
		h.Set(HeaderUnitCharges, encodeCharges(len(charges[0].Bricks[0].Frags), charges))
		return body
	}
	identity := func(t *testing.T, h http.Header, body []byte) []byte {
		stripes, err := DecodePayload(h.Get("Content-Encoding"), body, 1<<30)
		if err != nil {
			t.Errorf("worker payload does not decode: %v", err)
		}
		body = encodeV2(stripes)
		h.Set("Content-Encoding", EncodingListV2)
		h.Set(HeaderStripeDigest, PayloadDigest(body))
		return body
	}
	for _, tc := range []struct {
		name       string
		distReduce bool
		path       string
		reduced    bool // tamper with reduce-mode /map replies, not classic ones
		edit       func(*testing.T, http.Header, []byte) []byte
	}{
		{"map/no-frag-count", false, MapPath, false, noFragCount},
		{"reduce-map/no-frag-count", true, MapPath, true, noFragCount},
		{"collect/no-frag-count", true, CollectPath, false, noFragCount},
		{"map/no-charges", false, MapPath, false, without(HeaderUnitCharges)},
		{"reduce-map/no-charges", true, MapPath, true, without(HeaderUnitCharges)},
		{"map/hostile-charges", false, MapPath, false, hostile},
		{"reduce-map/hostile-charges", true, MapPath, true, hostile},
		{"map/identity", false, MapPath, false, identity},
		{"collect/identity", true, CollectPath, false, identity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tampered atomic.Int64
			addrs, _ := startReduceWorkers(t, 2, func(i int, path string, h http.Handler) http.Handler {
				if i != 0 || path != tc.path {
					return h
				}
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					body := rec.Body.Bytes()
					if rec.Code == http.StatusOK && (rec.Header().Get(HeaderReduced) == "1") == tc.reduced {
						body = tc.edit(t, rec.Header(), body)
						rec.Header().Set("Content-Length", strconv.Itoa(len(body)))
						tampered.Add(1)
					}
					for k, v := range rec.Header() {
						w.Header()[k] = v
					}
					w.WriteHeader(rec.Code)
					_, _ = w.Write(body)
				})
			})
			coord := newTestCoordinator(t, addrs, func(c *CoordinatorConfig) {
				c.DistReduce = tc.distReduce
			})
			res, _, err := coord.Render(context.Background(), job)
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			if got := res.Image.Digest(); got != want {
				t.Errorf("digest %s != direct %s", got, want)
			}
			st := coord.Stats()
			if tampered.Load() == 0 {
				t.Fatal("node 0 answered no hop to tamper with")
			}
			if st.Corrupt != tampered.Load() {
				t.Errorf("%d replies tampered with, %d counted corrupt: %+v", tampered.Load(), st.Corrupt, st)
			}
			if tc.distReduce && (st.ReduceFallbacks != 1 || st.ReduceJobs != 0) {
				t.Errorf("broken exchange did not fall back: %+v", st)
			}
		})
	}
}

// TestAllWorkersDeadFailsFast: when every node is gone the job must fail
// with an error, not hang — the bounded-retry contract.
func TestAllWorkersDeadFailsFast(t *testing.T) {
	addrs := startWorkers(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			panic(http.ErrAbortHandler)
		})
	})
	coord := newTestCoordinator(t, addrs, func(c *CoordinatorConfig) {
		c.MaxAttempts = 2
	})
	job := testJob(t, dataset.Skull, 24, 48, 2, 0, false)
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.Render(context.Background(), job)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("render with every node dead succeeded")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("render with every node dead hung")
	}
}
