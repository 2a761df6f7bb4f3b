package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/server"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// Fixed render settings of every workload (ISSUE 13): skull dataset and
// preset, shading on, a 4-GPU job, step 1, termination alpha 0.98.
const (
	jobGPUs          = 4
	stepVoxels       = 1
	terminationAlpha = 0.98
)

type kind int

const (
	kindDirect  kind = iota // core.RenderOn on an in-RAM volume
	kindPaged               // core.RenderOn on a demand-paged v2 file
	kindCluster             // GET /render on a coordinator over two workers
	kindServe               // GET /render on a single-node service, with revisits
)

// workload is one benchmark workload: which path a frame takes and at
// what size. Sizes were chosen so a frame costs 70–100 ms at GOMAXPROCS 1
// on the 2-vCPU reference VM (the driver's budget caps a whole run at
// ~29 s); per ISSUE 13 only image sizes were shrunk from the issue's
// prototype where that sufficed, never cameras or rounds.
type workload struct {
	Name string
	Why  string
	Kind kind

	Edge         int // volume cube edge (voxels)
	Image        int // square image edge (pixels)
	BricksPerGPU int // 0 = the default 1
	FileBrick    int // paged: file brick edge
	DistReduce   bool
}

var workloads = []workload{
	{
		Name: "orbit-direct", Kind: kindDirect, Edge: 256, Image: 160,
		Why: "core.RenderOn on in-RAM skull 256^3 -> 160^2: the paper's map/sort/composite pipeline alone; pager, wire, HTTP and frame cache are bypassed",
	},
	{
		Name: "orbit-paged", Kind: kindPaged, Edge: 144, Image: 112, BricksPerGPU: 4, FileBrick: 18,
		Why: "same call on a flate v2 file of skull 144^3 in 512 bricks of 18^3 through a quarter-size staging cache, 16 render bricks -> 112^2: the pager is over half of every frame",
	},
	{
		Name: "cluster-classic", Kind: kindCluster, Edge: 128, Image: 176,
		Why: "GET /render raw on a coordinator over two 1-GPU loopback workers, compressed wire, coordinator composite, skull 128^3 -> 176^2: wire codec and /map hops",
	},
	{
		Name: "cluster-reduce", Kind: kindCluster, Edge: 128, Image: 176, DistReduce: true,
		Why: "cluster-classic with DistReduce: peer-to-peer /reduce pushes and /reduce/collect, fold on the workers; a gain for one topology that costs the other shows",
	},
	{
		Name: "serve-revisit", Kind: kindServe, Edge: 256, Image: 160,
		Why: "GET /render png on a single-node service, skull 256^3 -> 160^2, every fifth request revisits the view two back: admission, PNG, cache insert beside cache reads",
	},
}

// overHTTP says whether the client reaches the frame through GET /render.
func (w workload) overHTTP() bool { return w.Kind == kindCluster || w.Kind == kindServe }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload to test size (edge 32, 64² image).
func (w workload) toy() workload {
	w.Edge, w.Image = 32, 64
	if w.Kind == kindPaged {
		w.FileBrick = 8
	}
	return w
}

// orbit is the camera path of one run: n cameras a full turn apart in
// equal steps. The seed rotates the start phase within one step and
// picks which request slots of serve-revisit are revisits.
type orbit struct {
	step    float64 // degrees between cameras
	phase   float64 // degrees, in [0, step)
	revisit int     // serve-revisit: slots ≡ revisit (mod 5) re-ask the view two back
}

// splitmix64 spreads consecutive seeds over the whole phase range.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newOrbit(seed uint64, n int) orbit {
	h := splitmix64(seed)
	step := 360 / float64(n)
	return orbit{
		step:    step,
		phase:   step * float64(h%1000) / 1000,
		revisit: 2 + int((h/1000)%3),
	}
}

// degrees is camera i's orbit angle; negative i are the warm-up cameras
// preceding the orbit start.
func (o orbit) degrees(i int) float64 {
	return math.Mod(o.phase+o.step*float64(i)+360, 360)
}

// camera maps a request slot to the camera it asks for. Only
// serve-revisit has revisit slots; everywhere else slot i asks camera i.
func (o orbit) camera(w workload, slot int) (cam int, revisit bool) {
	if w.Kind == kindServe && slot >= 2 && slot%5 == o.revisit {
		return slot - 2, true
	}
	return slot, false
}

// frameResult is what the client holds when a frame arrives.
type frameResult struct {
	wall       time.Duration
	digest     string  // image digest (direct) or X-Gvmr-Digest (HTTP)
	bodyDigest string  // digest of the received body, when asked for
	virtual    float64 // modelled-hardware frame time, seconds
	served     string  // X-Gvmr-Served (HTTP)
	err        error
}

// instance is a workload set up and ready to serve frames.
type instance interface {
	// beginRound prepares one round (a fresh front service where the
	// workload has one).
	beginRound() error
	// frame renders the view at deg and stops the clock when the complete
	// image is in the client's hands. withBody also digests the received
	// body (after the clock stops).
	frame(deg float64, withBody bool) frameResult
	// endRound returns the correct-path assertions the round violated.
	endRound(frames, revisits int) []string
	close()
}

// env is what a set-up needs from the harness.
type env struct {
	rec    *recorder
	tmpDir string // scratch inside the checkout, for the volume file
}

// setupTimes are the set-up steps a later change could move work into.
type setupTimes struct {
	materialize time.Duration
	writeV2     time.Duration
}

// skull returns the dataset source and its transfer function.
func skull(edge int) (volume.Source, *transfer.Func, error) {
	src, err := dataset.New(dataset.Skull, volume.Cube(edge))
	if err != nil {
		return nil, nil, err
	}
	tf, err := transfer.Preset(dataset.Skull)
	return src, tf, err
}

// materialize forces the process-wide staging cache to evaluate the
// dataset — the step a cold process pays before its first frame.
func materialize(src volume.Source) (time.Duration, error) {
	t0 := time.Now()
	var one [1]float32
	err := volume.Cached(src).Fill(volume.Region{Ext: volume.Dims{X: 1, Y: 1, Z: 1}}, one[:])
	return time.Since(t0), err
}

// setup performs one cold set-up of w: the staging cache is flushed
// first, so the dataset is materialised again, the volume file rewritten
// and every service restarted.
func setup(w workload, e env) (instance, setupTimes, error) {
	volume.Cache.Flush()
	var st setupTimes
	src, tf, err := skull(w.Edge)
	if err != nil {
		return nil, st, err
	}
	if st.materialize, err = materialize(src); err != nil {
		return nil, st, err
	}
	switch w.Kind {
	case kindDirect:
		return &directInstance{opt: renderOptions(w, src, tf)}, st, nil
	case kindPaged:
		inst, wr, err := newPagedInstance(w, e, src, tf)
		st.writeV2 = wr
		return inst, st, err
	case kindCluster:
		cw, err := startWorkers(e.rec)
		if err != nil {
			return nil, st, err
		}
		return newHTTPInstance(w, e, cw), st, nil
	default:
		return newHTTPInstance(w, e, nil), st, nil
	}
}

func renderOptions(w workload, src volume.Source, tf *transfer.Func) core.Options {
	return core.Options{
		Source: src, TF: tf,
		Width: w.Image, Height: w.Image,
		GPUs:             jobGPUs,
		Shading:          true,
		StepVoxels:       stepVoxels,
		TerminationAlpha: terminationAlpha,
		BricksPerGPU:     w.BricksPerGPU,
	}
}

// renderDirect is the in-process frame: one core.RenderOn job.
func renderDirect(opt core.Options, deg float64) (*core.Result, frameResult) {
	t0 := time.Now()
	cam, err := core.OrbitCamera(opt.Source, opt.Width, opt.Height, deg)
	if err != nil {
		return nil, frameResult{err: err}
	}
	opt.Camera = cam
	res, dur, err := core.RenderOn(cluster.AC(jobGPUs), opt, 0)
	wall := time.Since(t0)
	if err != nil {
		return nil, frameResult{wall: wall, err: err}
	}
	return res, frameResult{wall: wall, digest: res.Image.Digest(), virtual: dur.Seconds()}
}

// directInstance is orbit-direct.
type directInstance struct{ opt core.Options }

func (d *directInstance) beginRound() error { return nil }
func (d *directInstance) frame(deg float64, _ bool) frameResult {
	_, fr := renderDirect(d.opt, deg)
	return fr
}
func (d *directInstance) endRound(int, int) []string { return nil }
func (d *directInstance) close()                     {}

// pagedInstance is orbit-paged: the same call on a v2 file paged through
// a private staging cache a quarter of the dense volume.
type pagedInstance struct {
	opt   core.Options
	ps    *volume.PagedSource
	cache *volume.StagingCache
	path  string

	pager0 volume.PagerStats
	cache0 volume.CacheStats
}

func newPagedInstance(w workload, e env, src volume.Source, tf *transfer.Func) (*pagedInstance, time.Duration, error) {
	path := filepath.Join(e.tmpDir, "skull.gvmr")
	t0 := time.Now()
	err := volume.WriteFileV2(path, volume.Cached(src), volume.V2Options{BrickEdge: w.FileBrick, Compress: true})
	wrote := time.Since(t0)
	// The dense copy served only the writer; a paged render must not
	// find it in RAM.
	volume.Cache.Flush()
	if err != nil {
		return nil, wrote, err
	}
	ps, err := volume.OpenFileV2(path)
	if err != nil {
		os.Remove(path)
		return nil, wrote, err
	}
	p := &pagedInstance{ps: ps, path: path, cache: volume.NewStagingCache(src.Dims().Bytes() / 4)}
	ps.SetCache(p.cache)
	p.opt = renderOptions(w, &tracedPaged{PagedSource: ps, rec: e.rec}, tf)
	return p, wrote, nil
}

func (p *pagedInstance) beginRound() error {
	p.pager0, p.cache0 = p.ps.Stats(), p.cache.Stats()
	return nil
}

func (p *pagedInstance) frame(deg float64, _ bool) frameResult {
	_, fr := renderDirect(p.opt, deg)
	return fr
}

func (p *pagedInstance) endRound(int, int) []string {
	var bad []string
	ps, cs := p.ps.Stats(), p.cache.Stats()
	if ps.BrickReads-p.pager0.BrickReads <= 0 {
		bad = append(bad, "orbit-paged read no file bricks: it did not stream")
	}
	if cs.Evictions-p.cache0.Evictions <= 0 {
		bad = append(bad, "orbit-paged evicted nothing: the volume fit the staging budget")
	}
	return bad
}

func (p *pagedInstance) close() {
	p.ps.Close()
	os.Remove(p.path)
}

// workerPorts are the loopback ports the two cluster workers listen on.
// They are fixed because the coordinator places bricks by hashing worker
// addresses: random ports would change which bricks share a node, and
// with that the modelled map time and the wire bytes, from run to run.
// A run that cannot have them fails: on any other pair its numbers would
// not compare with anyone else's.
var workerPorts = [2]int{39431, 39432}

// httpInstance serves frames over GET /render from a front service that
// is rebuilt every round. workers is nil for serve-revisit.
type httpInstance struct {
	w       workload
	rec     *recorder
	workers *clusterWorkers

	svc    *server.Service
	srv    *httptest.Server
	client *http.Client
	tr     *http.Transport
}

// clusterWorkers are the two persistent single-GPU worker services.
type clusterWorkers struct {
	svcs  []*server.Service
	srvs  []*httptest.Server
	addrs []string
}

func startWorkers(rec *recorder) (*clusterWorkers, error) {
	cw := &clusterWorkers{}
	for _, port := range workerPorts {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
		if err != nil {
			cw.close()
			return nil, fmt.Errorf("cluster worker port (is another benchmark or its test running?): %w", err)
		}
		svc, err := server.New(server.Config{GPUs: 1})
		if err != nil {
			l.Close()
			cw.close()
			return nil, err
		}
		srv := httptest.NewUnstartedServer(rec.handler(svc.Handler()))
		srv.Listener.Close()
		srv.Listener = l
		srv.Start()
		cw.svcs, cw.srvs, cw.addrs = append(cw.svcs, svc), append(cw.srvs, srv), append(cw.addrs, srv.URL)
	}
	return cw, nil
}

func (cw *clusterWorkers) close() {
	for i, srv := range cw.srvs {
		srv.Close()
		closeService(cw.svcs[i])
	}
}

func closeService(svc *server.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = svc.Close(ctx) // a timeout only means a render is still draining at exit
}

func newHTTPInstance(w workload, e env, cw *clusterWorkers) *httpInstance {
	// One client connection: a viewer with one frame in flight.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpInstance{
		w: w, rec: e.rec, workers: cw, tr: tr,
		client: &http.Client{Transport: &roundTripper{rec: e.rec, next: tr}},
	}
}

func (h *httpInstance) closeFront() {
	if h.srv == nil {
		return
	}
	h.tr.CloseIdleConnections()
	h.srv.Close()
	closeService(h.svc)
	h.srv, h.svc = nil, nil
}

func (h *httpInstance) beginRound() error {
	h.closeFront()
	cfg := server.Config{GPUs: jobGPUs}
	if h.workers != nil {
		cfg.WorkerAddrs = h.workers.addrs
		cfg.DistReduce = h.w.DistReduce
	}
	svc, err := server.New(cfg)
	if err != nil {
		return err
	}
	h.svc = svc
	h.srv = httptest.NewServer(h.rec.handler(svc.Handler()))
	return nil
}

func (h *httpInstance) format() string {
	if h.w.Kind == kindServe {
		return "png"
	}
	return "raw"
}

func (h *httpInstance) renderURL(deg float64) string {
	q := url.Values{
		"dataset": {dataset.Skull},
		"edge":    {strconv.Itoa(h.w.Edge)},
		"size":    {strconv.Itoa(h.w.Image)},
		"gpus":    {strconv.Itoa(jobGPUs)},
		"shading": {"1"},
		"step":    {strconv.Itoa(stepVoxels)},
		"ta":      {strconv.FormatFloat(terminationAlpha, 'g', -1, 32)},
		"orbit":   {strconv.FormatFloat(deg, 'g', -1, 64)},
		"format":  {h.format()},
	}
	return h.srv.URL + "/render?" + q.Encode()
}

func (h *httpInstance) frame(deg float64, withBody bool) frameResult {
	u := h.renderURL(deg)
	t0 := time.Now()
	resp, err := h.client.Get(u)
	if err != nil {
		return frameResult{wall: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	fr := frameResult{wall: time.Since(t0)}
	switch {
	case err != nil:
		fr.err = err
		return fr
	case resp.StatusCode != http.StatusOK:
		fr.err = fmt.Errorf("GET /render: %s: %s", resp.Status, bytes.TrimSpace(body))
		return fr
	}
	fr.digest = resp.Header.Get(server.HeaderDigest)
	fr.served = resp.Header.Get(server.HeaderServed)
	if fr.virtual, err = strconv.ParseFloat(resp.Header.Get(server.HeaderRuntime), 64); err != nil {
		fr.err = fmt.Errorf("bad %s: %w", server.HeaderRuntime, err)
		return fr
	}
	if withBody {
		fr.bodyDigest, fr.err = h.digestBody(body)
	}
	return fr
}

// digestBody reduces a response body to something the reference render
// can reproduce: the float framebuffer's digest for raw, the SHA-256 of
// the bytes for PNG.
func (h *httpInstance) digestBody(body []byte) (string, error) {
	if h.format() == "png" {
		return sha256Hex(body), nil
	}
	im, err := img.DecodeRaw(bytes.NewReader(body), h.w.Image, h.w.Image)
	if err != nil {
		return "", err
	}
	if int64(len(body)) != img.RawBytes(h.w.Image, h.w.Image) {
		return "", fmt.Errorf("raw body is %d bytes, want %d", len(body), img.RawBytes(h.w.Image, h.w.Image))
	}
	return im.Digest(), nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func (h *httpInstance) endRound(frames, revisits int) []string {
	var bad []string
	st := h.svc.Stats()
	if h.w.Kind == kindServe {
		if got, want := st.Renders, int64(frames-revisits); got != want {
			bad = append(bad, fmt.Sprintf("serve-revisit rendered %d frames, want %d", got, want))
		}
		if got := st.Cache.Hits; got != int64(revisits) {
			bad = append(bad, fmt.Sprintf("serve-revisit served %d cache hits, want %d", got, revisits))
		}
		return bad
	}
	d := st.Dist
	if d == nil {
		return []string{"front service is not a coordinator"}
	}
	if d.Retries != 0 || d.Hedges != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d retries, %d hedges, want none", h.w.Name, d.Retries, d.Hedges))
	}
	if n := st.Resilience.BreakerOpens; n != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d breaker opens, want none", h.w.Name, n))
	}
	if st.LocalFallbacks != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d frames rendered locally, want none", h.w.Name, st.LocalFallbacks))
	}
	if h.w.DistReduce {
		if d.ReduceJobs != int64(frames) || d.ReduceFallbacks != 0 {
			bad = append(bad, fmt.Sprintf("cluster-reduce: %d of %d frames over the exchange, %d fallbacks",
				d.ReduceJobs, frames, d.ReduceFallbacks))
		}
	} else if d.ReduceJobs != 0 {
		bad = append(bad, fmt.Sprintf("cluster-classic: %d frames took the exchange path", d.ReduceJobs))
	}
	return bad
}

func (h *httpInstance) close() {
	h.closeFront()
	if h.workers != nil {
		h.workers.close()
	}
}
