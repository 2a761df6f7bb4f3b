// Command gvmrd is the gvmr render daemon: it serves frames rendered on
// the simulated multi-GPU cluster over HTTP, with request coalescing, a
// bounded rendered-frame cache and admission-control backpressure (see
// internal/server and DESIGN.md §7).
//
// Usage:
//
//	gvmrd serve -addr :8421 -gpus 8 -render-workers 0 -queue 64
//	gvmrd serve -pprof                  # expose /debug/pprof/ profiling
//	gvmrd serve -accept-joins           # coordinator; workers join at runtime
//	gvmrd serve -join coord:8421        # worker; registers with a coordinator
//	gvmrd serve -workers h1:8421,h2:8421,h3:8421   # static coordinator
//	gvmrd serve -volume v=skull.gvmr@skull        # serve a volume file as dataset v
//
// Endpoints:
//
//	GET  /render?dataset=skull&edge=64&size=256&orbit=30&shading=1&format=png
//	POST /map       (distributed map batches; every daemon is worker-capable)
//	POST /reduce, /reduce/collect   (worker-side reduce exchange; -dist-reduce)
//	POST /register, /heartbeat, /drain, /deregister   (membership; -accept-joins)
//	GET  /stats
//	GET  /healthz   (liveness: 200 while the process runs, even draining)
//	GET  /readyz    (readiness: 503 while draining or not registered)
//
// As a coordinator (-accept-joins, and/or static -workers host:port,…)
// every admitted /render fans its brick map-tasks out to the fleet's
// gvmrd workers over POST /map (consistent-hash placement, bounded
// retry with re-placement on node death, optional -hedge-after straggler
// hedging) and composites the returned fragment stripes locally. Served
// bits are identical to a single-process render — see DESIGN.md §9.
//
// Under overload the daemon sheds by priority class (interactive >
// batch > speculative; 429 + Retry-After), breaks circuits to failing
// workers, caps retry amplification with a budget, and — with
// -default-deadline / -allow-degraded — bounds every render end to end,
// optionally serving a coarser degraded frame on a miss. DESIGN.md §13.
//
// As a worker (-join coord:port) the daemon registers itself with the
// coordinator, renews its lease with heartbeats on the interval the
// coordinator assigns, and on SIGTERM drains (finish in-flight map
// batches, receive nothing new) before deregistering — see DESIGN.md §10.
//
// serve is the only subcommand and the default; anything else is a usage
// error (exit status 2). The frame benchmark lives in bench/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gvmr"

	"gvmr/internal/membership"
	"gvmr/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gvmrd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	var usage usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		if usage.print {
			fmt.Fprintln(os.Stderr, "gvmrd:", usage.err)
		}
		os.Exit(2)
	default:
		log.Print(err)
		os.Exit(1)
	}
}

// usageError is a bad command line: exit status 2. print is false when
// the flag package has already reported it.
type usageError struct {
	err   error
	print bool
}

func (e usageError) Error() string { return e.err.Error() }

// run is the daemon with its command line, minus the process: serve runs
// until ctx is cancelled, then drains and returns. stdout gets the line
// naming the address serve listens on.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		if args[0] != "serve" {
			return usageError{fmt.Errorf("unknown subcommand %q (serve)", args[0]), true}
		}
		args = args[1:]
	}
	return runServe(ctx, args, stdout)
}

// volumeFlags collects repeated -volume name=path[@tf-preset] flags.
type volumeFlags []string

func (v *volumeFlags) String() string { return strings.Join(*v, ",") }
func (v *volumeFlags) Set(s string) error {
	*v = append(*v, s)
	return nil
}

// parseVolumeFlag splits one -volume value: name=path, optionally
// suffixed with @tf-preset (skull, supernova, plume, gray).
func parseVolumeFlag(s string) (name, path, tf string, err error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" || rest == "" {
		return "", "", "", fmt.Errorf("-volume wants name=path[@tf-preset], got %q", s)
	}
	path = rest
	if i := strings.LastIndex(rest, "@"); i >= 0 {
		path, tf = rest[:i], rest[i+1:]
	}
	if path == "" {
		return "", "", "", fmt.Errorf("-volume wants name=path[@tf-preset], got %q", s)
	}
	return name, path, tf, nil
}

func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8421", "listen address")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		withPprof     = fs.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
		join          = fs.String("join", "", "coordinator address to register with as a cluster worker (host:port)")
		advertise     = fs.String("advertise", "", "address the coordinator should reach this worker at (default: derived from -addr)")
		gpus          = fs.Int("gpus", 4, "simulated cluster GPU count per render")
		renderWorkers = fs.Int("render-workers", 0, "concurrent renders (0 = GOMAXPROCS)")
		queue         = fs.Int("queue", 64, "admitted renders that may wait beyond the render workers (admission bound)")
		frameBytes    = fs.Int64("frame-bytes", 0, "frame cache budget in bytes (0 = 256 MiB, -1 disables)")
		maxEdge       = fs.Int("max-edge", 512, "largest dataset cube edge a request may ask for")
		maxPixels     = fs.Int("max-pixels", 4096*4096, "largest image (width*height) a request may ask for")
		workerList    = fs.String("workers", "", "comma-separated gvmrd worker addresses (host:port,...); non-empty fans renders out as a distributed coordinator")
		hedgeAfter    = fs.Duration("hedge-after", 0, "duplicate a straggling map batch onto another worker after this delay (coordinator mode; 0 = off)")
		attemptTO     = fs.Duration("attempt-timeout", 0, "bound one map exchange with a worker (coordinator mode; 0 = 30s default)")
		distReduce    = fs.Bool("dist-reduce", false, "reduce on the worker fleet: mappers exchange stripes peer-to-peer and the coordinator collects near-final pixels (coordinator mode)")
		acceptJoins   = fs.Bool("accept-joins", false, "accept dynamic worker joins (POST /register); coordinator mode with a live fleet")
		heartbeat     = fs.Duration("heartbeat", 2*time.Second, "lease heartbeat interval assigned to joining workers")
		leaseMisses   = fs.Int("lease-misses", 3, "missed heartbeats before a joined worker's lease expires and it is evicted")
		defDeadline   = fs.Duration("default-deadline", 0, "end-to-end deadline for renders that don't carry their own X-Gvmr-Deadline (0 = unbounded)")
		allowDegraded = fs.Bool("allow-degraded", false, "on a missed deadline, serve a coarser uncached frame (X-Gvmr-Degraded: 1) instead of 504")
	)
	var volumes volumeFlags
	fs.Var(&volumes, "volume", "register a .gvmr volume file as a dataset: name=path[@tf-preset] (repeatable; v2 files stream via the demand pager)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err, false}
	}

	for _, spec := range volumes {
		name, path, tf, err := parseVolumeFlag(spec)
		if err != nil {
			return err
		}
		if err := gvmr.RegisterVolumeFile(name, path, tf); err != nil {
			return err
		}
		log.Printf("registered volume %q from %s", name, path)
	}
	var addrs []string
	for _, a := range strings.Split(*workerList, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		} else if _, err := strconv.Atoi(a); err == nil {
			// -workers used to be the render-concurrency count; a bare
			// integer here is almost certainly an old script, not a
			// worker named "8". Fail loudly at startup.
			return fmt.Errorf(
				"-workers takes worker addresses (host:port,...); for concurrent renders use -render-workers %s", a)
		} else {
			addrs = append(addrs, a)
		}
	}
	svc, err := server.New(server.Config{
		GPUs:            *gpus,
		Workers:         *renderWorkers,
		MaxQueue:        *queue,
		FrameCacheBytes: *frameBytes,
		MaxPixels:       *maxPixels,
		MaxEdge:         *maxEdge,
		WorkerAddrs:     addrs,
		HedgeAfter:      *hedgeAfter,
		AttemptTimeout:  *attemptTO,
		DistReduce:      *distReduce,
		AcceptJoins:     *acceptJoins,
		HeartbeatEvery:  *heartbeat,
		LeaseMisses:     *leaseMisses,
		DefaultDeadline: *defDeadline,
		AllowDegraded:   *allowDegraded,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = svc.Close(context.Background()) // nothing admitted yet
		return err
	}
	agent, err := startMembership(svc, ln, *join, *advertise)
	if err != nil {
		ln.Close()
		_ = svc.Close(context.Background()) // nothing admitted yet
		return err
	}
	handler := svc.Handler()
	if *withPprof {
		// Profiling stays off the default mux and behind an explicit
		// flag: the daemon may face untrusted clients, and profiles leak
		// timing and memory internals. Perf investigations turn it on.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}
	st := svc.Stats()
	fmt.Fprintf(stdout, "gvmrd: listening on %s (%d workers, queue %d, frame cache %d MiB)\n",
		ln.Addr(), st.Workers, st.QueueCapacity, st.Cache.Capacity>>20)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	var serveErr error
	select {
	case serveErr = <-errc:
	case <-ctx.Done():
		log.Printf("draining...")
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if agent != nil {
		// Self-drain first: once the coordinator acknowledges, no new map
		// batches arrive, so the local drain below only waits out work
		// already in flight.
		if err := agent.Drain(dctx); err != nil {
			log.Printf("membership drain: %v", err)
		}
	}
	if err := svc.Close(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if agent != nil {
		if err := agent.Deregister(dctx); err != nil {
			log.Printf("membership deregister: %v", err)
		}
		agent.Stop()
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if serveErr != nil {
		return fmt.Errorf("serve: %w", serveErr)
	}
	log.Printf("drained; bye")
	return nil
}

// startMembership wires the worker side of dynamic membership when -join
// is set: an agent registers this daemon with the coordinator, renews its
// lease with heartbeats, and drives /readyz (a worker that lost its lease or
// is draining reports not-ready while staying live).
func startMembership(svc *server.Service, ln net.Listener, join, advertise string) (*membership.Agent, error) {
	if join == "" {
		return nil, nil
	}
	if advertise == "" {
		advertise = advertiseFromListener(ln)
	}
	agent, err := membership.StartAgent(membership.AgentConfig{
		Coordinator: join,
		Advertise:   advertise,
		Logf:        log.Printf,
	})
	if err != nil {
		return nil, err
	}
	svc.SetReadinessProbe(func() (bool, string) {
		switch s := agent.State(); s {
		case membership.AgentRegistered:
			return true, ""
		default:
			return false, "membership: " + string(s)
		}
	})
	log.Printf("joining %s as %s", join, advertise)
	return agent, nil
}

// advertiseFromListener derives a reachable default advertise address
// from the bound listener: an unspecified host (":8421", "0.0.0.0") maps
// to 127.0.0.1 — right for single-machine clusters, which is what an
// unspecified bind plus no explicit -advertise implies.
func advertiseFromListener(ln net.Listener) string {
	host, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		return ln.Addr().String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
