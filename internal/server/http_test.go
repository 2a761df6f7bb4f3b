package server

import (
	"bytes"
	"context"
	"encoding/json"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"gvmr/internal/img"
	"gvmr/internal/render"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, Config{GPUs: 2, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

const testQuery = "dataset=skull&edge=16&size=32&orbit=30&shading=1&gpus=2"

// TestHTTPRenderPNGAndCache: /render serves a decodable PNG with the
// digest header, and a repeat is a cache hit with identical bits.
func TestHTTPRenderPNGAndCache(t *testing.T) {
	_, ts := newTestServer(t)
	get := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/render?" + testQuery)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
		return resp, body
	}
	r1, b1 := get()
	if ct := r1.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("content type %q", ct)
	}
	if r1.Header.Get(HeaderServed) != string(ViaRender) {
		t.Errorf("first request served via %q", r1.Header.Get(HeaderServed))
	}
	cfgImg, err := png.Decode(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("served PNG does not decode: %v", err)
	}
	if b := cfgImg.Bounds(); b.Dx() != 32 || b.Dy() != 32 {
		t.Errorf("PNG is %dx%d, want 32x32", b.Dx(), b.Dy())
	}
	r2, b2 := get()
	if r2.Header.Get(HeaderServed) != string(ViaCache) {
		t.Errorf("repeat served via %q, want cache", r2.Header.Get(HeaderServed))
	}
	if string(b1) != string(b2) {
		t.Error("cached PNG differs from rendered PNG")
	}
	if r1.Header.Get(HeaderDigest) == "" ||
		r1.Header.Get(HeaderDigest) != r2.Header.Get(HeaderDigest) {
		t.Error("digest headers missing or inconsistent")
	}
}

// TestHTTPRawMatchesDirectRender is the CI smoke contract as a tier-1
// test: the raw framebuffer served over HTTP is bit-identical to a
// direct core render of the same request, and the digest header matches.
func TestHTTPRawMatchesDirectRender(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/render?" + testQuery + "&format=raw")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	served, err := img.DecodeRaw(resp.Body, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	direct := directDigest(t, s.spec, Request{Dataset: "skull", Edge: 16, Width: 32, Height: 32,
		Orbit: 30, Shading: true, GPUs: 2, StepVoxels: 1, TerminationAlpha: 0.98})
	if served.Digest() != direct {
		t.Error("served raw bits differ from direct render")
	}
	if resp.Header.Get(HeaderDigest) != direct {
		t.Error("digest header differs from direct render")
	}
}

// TestRawRenderSkipsPNG: a raw /render renders and caches its frame
// without encoding a PNG. The first PNG response for the view — a HEAD,
// which needs the Content-Length — encodes it once and the frame keeps
// it, so a later GET serves exactly img.EncodePNG's bytes of the
// framebuffer from that one encoding.
func TestRawRenderSkipsPNG(t *testing.T) {
	s, ts := newTestServer(t)
	do := func(method, query string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+"/render?"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d: %s %v", method, query, resp.StatusCode, body, err)
		}
		return resp, body
	}
	do(http.MethodGet, testQuery+"&format=raw")
	entries := s.cache.Entries()
	if len(entries) != 1 || !entries[0].Ready {
		t.Fatalf("raw render left %d cache entries, want 1 ready frame", len(entries))
	}
	f := entries[0].Val
	if f.png != nil {
		t.Fatal("a raw render encoded a PNG")
	}
	head, _ := do(http.MethodHead, testQuery)
	f.pngOnce.Do(func() {}) // orders the handler's encoding before these reads
	if f.png == nil {
		t.Fatal("a PNG HEAD left the frame without its PNG")
	}
	encoded := &f.png[0]
	resp, body := do(http.MethodGet, testQuery)
	var want bytes.Buffer
	if err := frameImage(t, f).EncodePNG(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("served PNG differs from img.EncodePNG of the frame")
	}
	if cl := head.Header.Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
		t.Errorf("HEAD Content-Length %s, want %d", cl, want.Len())
	}
	if &f.png[0] != encoded {
		t.Error("the GET encoded the frame's PNG a second time")
	}
	for _, r := range []*http.Response{head, resp} {
		if via := r.Header.Get(HeaderServed); via != string(ViaCache) {
			t.Errorf("PNG request after the raw one served via %q, want cache", via)
		}
	}
}

// TestHTTPStats: /stats returns a JSON snapshot whose counters reflect
// the requests made.
func TestHTTPStats(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/render?" + testQuery)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 || st.Renders != 1 || st.Cache.Hits != 2 {
		t.Errorf("stats = requests %d renders %d hits %d, want 3/1/2",
			st.Requests, st.Renders, st.Cache.Hits)
	}
	if st.Latency.Count != 3 {
		t.Errorf("latency count = %d, want 3", st.Latency.Count)
	}
	if st.Workers != 2 {
		t.Errorf("workers = %d", st.Workers)
	}
}

// TestHTTPErrors: bad requests are 400s, bad methods 405, health 200.
func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/render?dataset=nonesuch", http.StatusBadRequest},
		{"/render?" + testQuery + "&format=gif", http.StatusBadRequest},
		{"/render?edge=banana", http.StatusBadRequest},
		{"/render?size=64&w=32", http.StatusBadRequest},
		{"/render?shading=maybe", http.StatusBadRequest},
		{"/healthz", http.StatusOK},
		{"/stats", http.StatusOK},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s = %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Post(ts.URL+"/render", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /render = %d, want 405", resp.StatusCode)
	}
}

// TestHTTPDrainStatus: a draining service 503s /render and /readyz (no
// new traffic) while /healthz stays 200 (the process is alive and must
// not be restarted out from under its in-flight work).
func TestHTTPDrainStatus(t *testing.T) {
	s, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /readyz before drain = %d, want 200", resp.StatusCode)
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"/render?" + testQuery: http.StatusServiceUnavailable,
		"/readyz":              http.StatusServiceUnavailable,
		"/healthz":             http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s while draining = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestHTTPPartitionParams: a non-convex partition requested over HTTP
// (?partition=scheme:parts) must serve the same bits as the same render
// with convex bricks — the §12 identity at the service boundary — and
// malformed partition parameters are clean 400s.
func TestHTTPPartitionParams(t *testing.T) {
	_, ts := newTestServer(t)
	digest := func(q string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/render?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d for %q", resp.StatusCode, q)
		}
		return resp.Header.Get(HeaderDigest)
	}
	base := "dataset=skull&edge=16&size=32&shading=1&gpus=2&bricks-per-gpu=8"
	convex := digest(base)
	if part := digest(base + "&partition=interleave:2"); part != convex {
		t.Errorf("interleave:2 digest %s != convex %s", part, convex)
	}
	for _, q := range []string{
		base + "&partition=interleave",                    // missing parts
		base + "&partition=interleave:zero",               // non-numeric parts
		base + "&partition=interleave:1",                  // below the [2,4096] floor
		base + "&partition=nonesuch:2",                    // unregistered scheme
		"dataset=skull&edge=16&size=32&bricks-per-gpu=65", // over cap
	} {
		resp, err := http.Get(ts.URL + "/render?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %q = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHTTPRenderBuildsSkipStructuresOnce: the renderer memoises skip grids
// and opacity-corrected tables by (macrocell grid, transfer function)
// pointer, so the service must hand every request the same preset
// instance. Two /render misses from different cameras on one dataset (an
// edge no other test stages, both bricks views of one volume) build at
// most one grid and one step-0.5 table between them — it used to be one
// per request. The first miss builds none when an earlier run in this
// process (-count) built them; the second, from another camera, must
// always build none.
func TestHTTPRenderBuildsSkipStructuresOnce(t *testing.T) {
	_, ts := newTestServer(t)
	grids, tables := render.MemoBuilds()
	for i, most := range []int64{1, 0} {
		resp, err := http.Get(ts.URL + "/render?dataset=skull&edge=20&size=32&gpus=2&step=0.5&format=raw&orbit=" + []string{"30", "75"}[i])
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderServed) != string(ViaRender) {
			t.Fatalf("request %d: HTTP %d served via %q", i, resp.StatusCode, resp.Header.Get(HeaderServed))
		}
		g, tb := render.MemoBuilds()
		if g-grids > most || tb-tables > most {
			t.Errorf("request %d built %d skip grids and %d corrected tables, want at most %d of each", i, g-grids, tb-tables, most)
		}
		grids, tables = g, tb
	}
}

// TestHTTPStatsPagerCounters: a registered volume file renders over HTTP,
// and /stats reports its pager under "pager" — bricks read from disk and
// fills served from the directory's constant bricks.
func TestHTTPStatsPagerCounters(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skull32.gvmr")
	if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 8, Compress: true}); err != nil {
		t.Fatal(err)
	}
	if err := dataset.RegisterVolumeFile("skullfile-stats", path, "skull"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dataset.UnregisterVolumeFile("skullfile-stats") })
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/render?dataset=skullfile-stats&size=32&orbit=30&shading=1&gpus=2&format=raw")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Pager map[string]int64 `json:"pager"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Pager["brick_reads"] <= 0 || st.Pager["constant_fills"] <= 0 {
		t.Errorf(`/stats "pager" = %v: want brick_reads and constant_fills above zero`, st.Pager)
	}
}
