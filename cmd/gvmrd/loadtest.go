package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/img"
	"gvmr/internal/server"
	"gvmr/internal/transfer"
	"gvmr/internal/volume/dataset"
)

// serveBench is the machine-readable record loadtest writes to
// BENCH_serve.json: proof the serving stack works (coalescer renders
// once for a storm of duplicates, served bits match a direct render)
// plus sustained-load throughput and latency quantiles.
type serveBench struct {
	Config       serveBenchConfig `json:"config"`
	Coalesce     coalesceCheck    `json:"coalesce_check"`
	BitIdentical bool             `json:"bits_identical"`
	Load         loadPhase        `json:"load"`
	Service      server.Stats     `json:"service_stats"`
}

type serveBenchConfig struct {
	Target          string  `json:"target"` // "self" or the -addr URL
	DurationSeconds float64 `json:"duration_seconds"`
	Concurrency     int     `json:"concurrency"`
	Cameras         int     `json:"cameras"`
	ZipfS           float64 `json:"zipf_s"`
	Dataset         string  `json:"dataset"`
	Edge            int     `json:"edge"`
	ImageSize       int     `json:"image_size"`
	Shading         bool    `json:"shading"`
	GPUs            int     `json:"gpus"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"num_cpu"`
}

// coalesceCheck fires Concurrency identical requests at a cold camera;
// exactly one may render.
type coalesceCheck struct {
	Requests  int  `json:"requests"`
	Renders   int  `json:"renders"`
	Coalesced int  `json:"coalesced"`
	CacheHits int  `json:"cache_hits"`
	OK        bool `json:"ok"`
}

type loadPhase struct {
	Requests       int     `json:"requests"`
	Errors         int     `json:"errors"`
	Rejected429    int     `json:"rejected_429"`
	WallSeconds    float64 `json:"wall_seconds"`
	RPS            float64 `json:"rps"`
	ServedRender   int     `json:"served_render"`
	ServedCache    int     `json:"served_cache"`
	ServedCoalesce int     `json:"served_coalesced"`
	// Latency is client-observed, summarised by the same
	// server.SummarizeLatency the /stats endpoint uses.
	Latency server.LatencyStats `json:"latency"`
}

func runLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "", "base URL of a running daemon (empty: self-host in-process)")
		duration    = fs.Duration("duration", 10*time.Second, "sustained-load phase length")
		concurrency = fs.Int("concurrency", 16, "concurrent clients")
		cameras     = fs.Int("cameras", 64, "distinct camera angles in the zipf mix")
		zipfS       = fs.Float64("zipf", 1.2, "zipf skew (>1; hot cameras repeat, tail cameras are near-unique)")
		ds          = fs.String("dataset", dataset.Skull, "dataset to request")
		edge        = fs.Int("edge", 32, "dataset cube edge")
		size        = fs.Int("size", 128, "square image size")
		shading     = fs.Bool("shading", true, "request gradient shading")
		reqGPUs     = fs.Int("req-gpus", 2, "gpus= sent with every request (also used for the direct-render check)")
		jsonPath    = fs.String("json", "BENCH_serve.json", "output path for the record (empty: skip)")
	)
	mkService := serviceFlags(fs)
	_ = fs.Parse(args)

	base := *addr
	target := base
	if base == "" {
		svc, err := mkService()
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go func() { _ = http.Serve(ln, svc.Handler()) }()
		base = "http://" + ln.Addr().String()
		target = "self"
		log.Printf("self-hosting on %s", base)
	}
	client := &http.Client{
		Timeout: 5 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	bench := &serveBench{
		Config: serveBenchConfig{
			Target:          target,
			DurationSeconds: duration.Seconds(),
			Concurrency:     *concurrency,
			Cameras:         *cameras,
			ZipfS:           *zipfS,
			Dataset:         *ds,
			Edge:            *edge,
			ImageSize:       *size,
			Shading:         *shading,
			GPUs:            *reqGPUs,
			GOMAXPROCS:      runtime.GOMAXPROCS(0),
			NumCPU:          runtime.NumCPU(),
		},
	}
	renderURL := func(orbit float64, format string) string {
		v := url.Values{}
		v.Set("dataset", *ds)
		v.Set("edge", fmt.Sprint(*edge))
		v.Set("size", fmt.Sprint(*size))
		v.Set("orbit", fmt.Sprintf("%.4f", orbit))
		v.Set("gpus", fmt.Sprint(*reqGPUs))
		v.Set("shading", fmt.Sprintf("%t", *shading))
		if format != "" {
			v.Set("format", format)
		}
		return base + "/render?" + v.Encode()
	}

	// Phase 1 — coalescer proof: a storm of identical requests for a cold
	// camera must render exactly once. The angle is negative (the zipf
	// grid never goes there) and unique per run, so reruns against the
	// same long-lived daemon don't find it warm in the frame cache.
	log.Printf("phase 1: %d concurrent duplicate requests (coalescer)...", *concurrency)
	// Seconds-of-day at 0.1 ms resolution (the %.4f the URL carries).
	coldOrbit := -(360 + float64(time.Now().UnixNano()%86_400_000_000_000)/1e9)
	coldURL := renderURL(coldOrbit, "")
	var (
		mu     sync.Mutex
		served = map[string]int{}
		wg     sync.WaitGroup
	)
	for i := 0; i < *concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(coldURL)
			if err != nil {
				log.Printf("coalesce request: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			if resp.StatusCode == http.StatusOK {
				served[resp.Header.Get(server.HeaderServed)]++
			} else {
				served[fmt.Sprintf("http%d", resp.StatusCode)]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	bench.Coalesce = coalesceCheck{
		Requests:  *concurrency,
		Renders:   served[string(server.ViaRender)],
		Coalesced: served[string(server.ViaCoalesced)],
		CacheHits: served[string(server.ViaCache)],
	}
	bench.Coalesce.OK = bench.Coalesce.Renders == 1 &&
		bench.Coalesce.Renders+bench.Coalesce.Coalesced+bench.Coalesce.CacheHits == *concurrency
	log.Printf("phase 1: %d requests → %d rendered, %d coalesced, %d cache hits (ok=%v)",
		bench.Coalesce.Requests, bench.Coalesce.Renders, bench.Coalesce.Coalesced,
		bench.Coalesce.CacheHits, bench.Coalesce.OK)

	// Phase 2 — bit-identity: the served raw framebuffer must match a
	// direct in-process render of the same request, bit for bit.
	log.Printf("phase 2: served bits vs direct render...")
	identical, err := bitIdentityCheck(client, renderURL(33.25, "raw"), *ds, *edge, *size, 33.25, *reqGPUs, *shading)
	if err != nil {
		log.Fatalf("bit-identity check: %v", err)
	}
	bench.BitIdentical = identical
	log.Printf("phase 2: bits identical: %v", identical)

	// Phase 3 — sustained zipf load.
	log.Printf("phase 3: %v of zipf load, %d clients over %d cameras...",
		*duration, *concurrency, *cameras)
	bench.Load = sustainedLoad(client, renderURL, *duration, *concurrency, *cameras, *zipfS)
	log.Printf("phase 3: %d requests in %.1fs → %.1f req/s (p50 %.1f ms, p99 %.1f ms; %d rejected, %d errors)",
		bench.Load.Requests, bench.Load.WallSeconds, bench.Load.RPS,
		bench.Load.Latency.P50Ms, bench.Load.Latency.P99Ms, bench.Load.Rejected429, bench.Load.Errors)

	// Final service-side counters.
	if err := fetchStats(client, base, &bench.Service); err != nil {
		log.Printf("stats: %v", err)
	}
	if rs := bench.Service.Resilience; rs != nil {
		log.Printf("resilience: %d breaker opens, %d half-open probes, %d budget exhaustions, %d degraded frames, %d deadline aborts, sheds %v",
			rs.BreakerOpens, rs.HalfOpenProbes, rs.RetryBudgetExhausted,
			rs.DegradedFrames, rs.DeadlineAborts, rs.ShedsByClass)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonPath)
	}
	if !bench.Coalesce.OK || !bench.BitIdentical || bench.Load.Errors > 0 {
		log.Fatal("loadtest FAILED (see record above)")
	}
	log.Printf("loadtest OK")
}

// bitIdentityCheck fetches a raw framebuffer over HTTP and renders the
// same request directly through core.RenderOn, comparing exact bits.
func bitIdentityCheck(client *http.Client, rawURL, ds string, edge, size int, orbit float64, gpus int, shading bool) (bool, error) {
	resp, err := client.Get(rawURL)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	servedIm, err := img.DecodeRaw(resp.Body, size, size)
	if err != nil {
		return false, err
	}
	servedDigest := resp.Header.Get(server.HeaderDigest)

	im, err := directRender(ds, edge, size, orbit, gpus, shading)
	if err != nil {
		return false, err
	}
	direct := im.Digest()
	return servedIm.Digest() == direct && servedDigest == direct, nil
}

// directRender renders a /render request's frame straight through
// core.RenderOn, bypassing the service.
func directRender(ds string, edge, size int, orbit float64, gpus int, shading bool) (*img.Image, error) {
	src, err := dataset.New(ds, dataset.PaperDims(ds, edge))
	if err != nil {
		return nil, err
	}
	tf, err := transfer.Preset(dataset.TFName(ds))
	if err != nil {
		return nil, err
	}
	cam, err := core.OrbitCamera(src, size, size, orbit)
	if err != nil {
		return nil, err
	}
	res, _, err := core.RenderOn(cluster.AC(gpus), core.Options{
		Source: src, TF: tf, Width: size, Height: size,
		Camera: cam, GPUs: gpus, Shading: shading,
	}, 0)
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}

// sustainedLoad drives the zipf camera mix for the given duration and
// summarises client-observed latency and throughput.
func sustainedLoad(client *http.Client, renderURL func(float64, string) string,
	duration time.Duration, concurrency, cameras int, zipfS float64) loadPhase {
	deadline := time.Now().Add(duration)
	var mu sync.Mutex
	out := loadPhase{}
	var all []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(cameras-1))
			var lats []time.Duration
			requests, errors, rejected := 0, 0, 0
			via := map[string]int{}
			for time.Now().Before(deadline) {
				cam := int(zipf.Uint64())
				orbit := 360 * float64(cam) / float64(cameras)
				t0 := time.Now()
				resp, err := client.Get(renderURL(orbit, ""))
				if err != nil {
					errors++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					requests++
					lats = append(lats, time.Since(t0))
					via[resp.Header.Get(server.HeaderServed)]++
				case http.StatusTooManyRequests:
					rejected++
					time.Sleep(retryAfter(resp, 10*time.Millisecond))
				default:
					errors++
				}
			}
			mu.Lock()
			out.Requests += requests
			out.Errors += errors
			out.Rejected429 += rejected
			out.ServedRender += via[string(server.ViaRender)]
			out.ServedCache += via[string(server.ViaCache)]
			out.ServedCoalesce += via[string(server.ViaCoalesced)]
			all = append(all, lats...)
			mu.Unlock()
		}(int64(c + 1))
	}
	wg.Wait()
	out.WallSeconds = time.Since(start).Seconds()
	if out.WallSeconds > 0 {
		out.RPS = float64(out.Requests) / out.WallSeconds
	}
	out.Latency = server.SummarizeLatency(all, int64(len(all)))
	return out
}

// retryAfter honors a Retry-After header (delay-seconds form) on an
// overload response, bounded to keep a hostile or confused server from
// parking the client; fallback covers a missing or unparsable header.
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return fallback
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return fallback
	}
	d := time.Duration(secs) * time.Second
	if max := 5 * time.Second; d > max {
		d = max
	}
	return d
}

func fetchStats(client *http.Client, base string, dst *server.Stats) error {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(dst)
}
