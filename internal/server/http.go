package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"gvmr/internal/dist"
	"gvmr/internal/img"
	"gvmr/internal/resilience"
)

// HTTP response headers on /render.
const (
	// HeaderDigest carries the SHA-256 of the exact float32 framebuffer
	// bits — compare it against img.Image.Digest of a direct render.
	HeaderDigest = "X-Gvmr-Digest"
	// HeaderServed says how the request was satisfied: cache, coalesced,
	// or render.
	HeaderServed = "X-Gvmr-Served"
	// HeaderRuntime is the frame's virtual duration in seconds on the
	// simulated cluster (the paper's figure of merit, not wall time).
	HeaderRuntime = "X-Gvmr-Runtime-Seconds"
	// HeaderWidth and HeaderHeight size a format=raw framebuffer.
	HeaderWidth  = "X-Gvmr-Width"
	HeaderHeight = "X-Gvmr-Height"
)

// Handler returns the HTTP API over the service:
//
//	GET /render?dataset=skull&edge=64&size=256&orbit=30&shading=1&format=png
//	GET /stats
//	GET /healthz
//	GET /readyz
//
// /render query parameters: dataset (skull|supernova|plume), edge, size
// (square image) or w+h, orbit (degrees), gpus, shading (0/1), step
// (voxels), ta (termination alpha), bricks-per-gpu (bricking scale),
// partition (scheme:parts, e.g. interleave:2 — a possibly non-convex
// brick partition; bits are identical to the convex default), format
// (png, the default, or raw — little-endian float32 RGBA, the
// renderer's exact bits), priority (interactive, the default, batch, or
// speculative — the class admission sheds at under overload).
//
// An X-Gvmr-Deadline request header (relative milliseconds) bounds the
// render end to end; a miss is 504, or — when the service runs with
// -allow-degraded — a coarser frame marked with X-Gvmr-Degraded: 1.
// Overload (429) and drain (503) responses carry Retry-After.
//
// /healthz is pure liveness: 200 whenever the process can answer, even
// while draining — restarting a draining node would kill the in-flight
// work the drain protects. /readyz is routability: 503 while draining,
// not yet registered with a coordinator, or cut off from one.
//
// When the service accepts joins (or coordinates static workers), the
// membership control plane (/register, /heartbeat, /drain, /deregister)
// is mounted too.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/render", s.handleRender)
	mux.HandleFunc(dist.MapPath, s.handleMap)
	// The reduce-exchange endpoints bypass the admission gate on purpose:
	// a push or collect is the tail of a render whose map batches already
	// hold admission slots fleet-wide. Gating them behind the same bounded
	// queue could deadlock a full fleet — every slot held by a mapper
	// waiting on a push the gate won't admit. The handlers bound their own
	// memory (body caps, session cap, TTL sweep) instead.
	mux.HandleFunc(dist.ReducePath, s.worker.HandleReducePush)
	mux.HandleFunc(dist.CollectPath, s.worker.HandleCollect)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := s.Ready(); !ok {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if s.registry != nil {
		s.registry.Mount(mux)
	}
	return mux
}

// handleMap serves the distributed map endpoint (POST /map): this node
// acting as a cluster worker for a remote coordinator. Map batches pass
// through the same admission gate as renders — a queue token and a
// render-worker slot — so a coordinator storm cannot starve local
// requests past the configured bounds, and Close drains map work too.
func (s *Service) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Hedge duplicates arrive marked speculative and are the first work
	// shed when this node's queue fills; a garbled header is a protocol
	// error, not a default.
	pri, err := resilience.ParsePriority(r.Header.Get(resilience.HeaderPriority))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The batch's deadline runs from its arrival, so a wait for a slot
	// spends it: a batch whose deadline passes in the queue, or whose
	// coordinator hangs up there, leaves the queue at once and does no
	// map work.
	if budget, ok, err := resilience.ParseDeadline(r.Header.Get(resilience.HeaderDeadline)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if ok {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		r = r.WithContext(ctx)
	}
	if err := s.beginJob(); err != nil {
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer s.endJob()
	release, err := s.admit(r.Context(), pri)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.res.DeadlineAbort()
		http.Error(w, "map batch deadline spent waiting for a render slot", http.StatusGatewayTimeout)
		return
	case errors.Is(err, context.Canceled):
		return // the coordinator hung up: nobody reads a reply
	case err != nil:
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer release()
	s.mu.Lock()
	s.mapJobs++
	s.mu.Unlock()
	s.worker.ServeHTTP(w, r)
}

// parseRenderRequest decodes /render query parameters into a Request
// (normalization and limit checks happen inside Service.Render).
func parseRenderRequest(r *http.Request) (Request, string, error) {
	q := r.URL.Query()
	req := Request{Dataset: q.Get("dataset")}
	intArg := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s=%q", name, v)
			}
			*dst = n
		}
		return nil
	}
	floatArg := func(name string, dst *float64) error {
		if v := q.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad %s=%q", name, v)
			}
			*dst = f
		}
		return nil
	}
	size := 0
	for _, e := range []error{
		intArg("edge", &req.Edge), intArg("size", &size),
		intArg("w", &req.Width), intArg("h", &req.Height),
		intArg("gpus", &req.GPUs), floatArg("orbit", &req.Orbit),
		intArg("bricks-per-gpu", &req.BricksPerGPU),
	} {
		if e != nil {
			return req, "", e
		}
	}
	if v := q.Get("partition"); v != "" {
		// "scheme:parts", e.g. "interleave:2" — the same spelling
		// Partition.Name uses; it becomes the job's PartitionSpec.
		scheme, parts, ok := strings.Cut(v, ":")
		if !ok || scheme == "" {
			return req, "", fmt.Errorf("bad partition=%q (want scheme:parts)", v)
		}
		n, err := strconv.Atoi(parts)
		if err != nil {
			return req, "", fmt.Errorf("bad partition=%q (want scheme:parts)", v)
		}
		req.Partition, req.Parts = scheme, n
	}
	if size != 0 {
		if req.Width != 0 || req.Height != 0 {
			return req, "", fmt.Errorf("size and w/h are mutually exclusive")
		}
		req.Width, req.Height = size, size
	}
	if v := q.Get("shading"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, "", fmt.Errorf("bad shading=%q", v)
		}
		req.Shading = b
	}
	var step, ta float64
	if err := floatArg("step", &step); err != nil {
		return req, "", err
	}
	if err := floatArg("ta", &ta); err != nil {
		return req, "", err
	}
	req.StepVoxels = float32(step)
	req.TerminationAlpha = float32(ta)
	format := q.Get("format")
	if format == "" {
		format = "png"
	}
	if format != "png" && format != "raw" {
		return req, "", fmt.Errorf("bad format=%q (png|raw)", format)
	}
	return req, format, nil
}

func (s *Service) handleRender(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	req, format, err := parseRenderRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	po := RenderOptions{Priority: resilience.Interactive}
	if v := r.URL.Query().Get("priority"); v != "" {
		if po.Priority, err = resilience.ParsePriority(v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if d, ok, derr := resilience.ParseDeadline(r.Header.Get(resilience.HeaderDeadline)); derr != nil {
		http.Error(w, derr.Error(), http.StatusBadRequest)
		return
	} else if ok {
		po.Deadline = d
	}
	f, via, err := s.RenderWith(r.Context(), req, po)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrInvalid):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
		// Client went away; nothing useful to write.
		return
	case errors.Is(err, dist.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		// The policy deadline expired (the client is still here — their
		// context is checked above). Without -allow-degraded there is no
		// frame to serve, only the honest status.
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var png []byte
	if format == "png" {
		if png, err = f.PNG(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	h := w.Header()
	if f.Degraded {
		h.Set(resilience.HeaderDegraded, "1")
	}
	h.Set(HeaderDigest, f.Digest)
	h.Set(HeaderServed, string(via))
	h.Set(HeaderRuntime, strconv.FormatFloat(f.Runtime.Seconds(), 'g', -1, 64))
	h.Set(HeaderWidth, strconv.Itoa(f.Width))
	h.Set(HeaderHeight, strconv.Itoa(f.Height))
	switch format {
	case "raw":
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.FormatInt(img.RawBytes(f.Width, f.Height), 10))
		if r.Method == http.MethodHead {
			return
		}
		_ = f.Pixels.EncodeRaw(w) // client hangup; nothing to recover
	default:
		h.Set("Content-Type", "image/png")
		h.Set("Content-Length", strconv.Itoa(len(png)))
		if r.Method == http.MethodHead {
			return
		}
		_, _ = w.Write(png)
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}
