package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/volume/dataset"
)

// TestReadSized: whatever the header declares, the bytes returned are the
// bytes the reader had — Content-Length only sizes the buffer.
func TestReadSized(t *testing.T) {
	body := bytes.Repeat([]byte("stripe"), 1000)
	for _, tc := range []struct {
		name              string
		declared, sizeCap int64
		wantCap           int // 0 = don't care
	}{
		{"absent", -1, 1 << 20, 0},
		{"zero", 0, 1 << 20, 0},
		{"exact", int64(len(body)), 1 << 20, len(body) + bytes.MinRead},
		{"under-declared", 10, 1 << 20, 0},
		{"over-declared", 1 << 16, 1 << 20, 1<<16 + bytes.MinRead},
		{"declared past the cap", 1 << 40, 100, 0},
	} {
		got, err := readSized(iotest.OneByteReader(bytes.NewReader(body)), tc.declared, tc.sizeCap)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s: read %d bytes, %v; want the %d-byte body", tc.name, len(got), err, len(body))
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Errorf("%s: buffer cap %d, want %d (sized once, never grown)", tc.name, cap(got), tc.wantCap)
		}
	}
	boom := errors.New("boom")
	got, err := readSized(io.MultiReader(bytes.NewReader(body[:7]), iotest.ErrReader(boom)), int64(len(body)), 1<<20)
	if !errors.Is(err, boom) || len(got) != 7 {
		t.Errorf("failing reader: %d bytes, %v; want 7 bytes and the reader's error", len(got), err)
	}
}

// TestOverLimitBodiesStillRefused: the pre-sized reads keep both limits
// and their accounting — a map response past MaxResponseBytes fails the
// batch with the same text and counts against the node; a push past it is
// a counted 400.
func TestOverLimitBodiesStillRefused(t *testing.T) {
	job := testJob(t, dataset.Skull, 24, 48, 1, 30, true)
	coord := newTestCoordinator(t, startWorkers(t, 1, nil), func(c *CoordinatorConfig) { c.MaxResponseBytes = 64 })
	_, _, err := coord.Render(context.Background(), job)
	if err == nil || !strings.Contains(err.Error(), "response exceeds 64 bytes") {
		t.Errorf("over-limit map response: got %v", err)
	}
	if st := coord.Stats(); st.NodeDowns < 1 {
		t.Errorf("over-limit response not counted against the node: %+v", st)
	}

	wk := reduceWorker(t, func(c *WorkerConfig) { c.MaxResponseBytes = 64 })
	frags := make([]composite.Fragment, 32)
	for i := range frags {
		frags[i] = composite.Fragment{Key: int32(i / 4), R: float32(i) / 3, A: 1 / float32(i+1), Depth: float32(i) * 1.7}
	}
	stripes := []core.BrickStripe{{Brick: 0, Frags: frags}}
	if n := len(encodeCF2(stripes)); n <= 64 {
		t.Fatalf("push payload is %d bytes, not past the 64-byte limit", n)
	}
	rec := httptest.NewRecorder()
	wk.HandleReducePush(rec, pushReq("e", 0, 10, stripes))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "reading push payload") {
		t.Errorf("over-limit push: %d %s", rec.Code, rec.Body.String())
	}
	if st := wk.ExchangeStats(); st.PushRejects != 1 || st.Pushes != 0 {
		t.Errorf("over-limit push not counted as a reject: %+v", st)
	}
}
