// Command rrcsimd is the long-running simulation service: an HTTP daemon
// that accepts replay jobs — single schemes, scheme sweeps, or whole
// scheme × profile × cohort grids — runs them asynchronously on the
// sharded fleet runtime, streams merged partial aggregates while they
// run, and serves finished summaries as JSON/CSV/text. Identical
// submissions (matched by the deterministic v4 job fingerprint over
// canonical axis encodings) are served from an LRU result cache with
// byte-identical responses, and overlapping grids reuse prior work
// through a cell-level cache.
//
// Usage:
//
//	rrcsimd -addr :8080 -parallel 0 -queue-depth 32 -cache-size 128
//	rrcsimd -pprof localhost:6060    # profiling endpoints on a side listener
//	rrcsimd -store-dir /var/lib/rrcsim/cells -store-max-bytes 1073741824
//	                                 # durable cell store: finished grid
//	                                 # cells persist across restarts (crash
//	                                 # included) and resubmitted grids
//	                                 # replay only never-computed cells
//	rrcsimd -trace-cache-bytes 67108864   # cohort trace cache budget:
//	                                 # generated traffic is memoized as
//	                                 # encoded slabs, so a grid synthesizes
//	                                 # each user's trace once, not once per
//	                                 # replay (<= 0 disables; results are
//	                                 # byte-identical either way)
//
// Then, from any HTTP client (the API is versioned under /v1):
//
//	curl -s localhost:8080/v1/policies                 # discover policies + knobs
//	curl -s localhost:8080/v1/profiles                 # discover carrier profiles + knobs
//	curl -s localhost:8080/v1/workloads                # discover cohort families + knobs
//	curl -s localhost:8080/v1/jobs -d '{"seed": 1, "schemes": [
//	  {"policy": {"name": "makeidle"}},
//	  {"policy": {"name": "fixedtail", "params": {"wait": "2s"}}}],
//	  "profiles": [{"name": "verizon-3g"}, {"name": "verizon-lte", "params": {"t1": "5s"}}],
//	  "cohorts": [{"name": "study-3g", "params": {"users": 500}}]}'   # a 2x2x1 grid
//	curl -s localhost:8080/v1/jobs/job-000001/stream   # NDJSON progress
//	curl -s localhost:8080/v1/jobs/job-000001/result   # final JSON (per cell for grids)
//	curl -s localhost:8080/v1/jobs/job-000001/result?cell=2   # one cell, verbatim
//	curl -s localhost:8080/v1/cells/$FINGERPRINT       # same cell by content address
//	curl -s localhost:8080/v1/jobs/job-000001/result?format=csv
//	curl -s -X DELETE localhost:8080/v1/jobs/job-000001  # cancel
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight jobs are
// canceled at the fleet's next between-jobs checkpoint and the listener
// drains before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fatal(err)
	}
}

// daemonFlags is every rrcsimd flag, declared in one place so the
// documentation drift test can enumerate them (each must be mentioned in
// the README) and run() stays readable.
type daemonFlags struct {
	addr       *string
	parallel   *int
	queueDepth *int
	cacheSize  *int
	cellCache  *int
	runners    *int
	pprofAddr  *string
	storeDir   *string
	storeMax   *int64
	traceCache *int64
}

// registerFlags declares the daemon's flags on fs.
func registerFlags(fs *flag.FlagSet) *daemonFlags {
	return &daemonFlags{
		addr:       fs.String("addr", ":8080", "listen address"),
		parallel:   fs.Int("parallel", 0, "worker budget shared by every job and grid cell (0 = all cores, 1 = one cell at a time; never changes results)"),
		queueDepth: fs.Int("queue-depth", 32, "max queued jobs before submissions get 503"),
		cacheSize:  fs.Int("cache-size", 128, "fingerprint result cache entries (LRU; negative disables)"),
		cellCache:  fs.Int("cell-cache-size", 1024, "grid cell cache entries (LRU; negative disables)"),
		runners:    fs.Int("runners", 1, "jobs executing concurrently (each parallelizes internally)"),
		pprofAddr:  fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)"),
		storeDir:   fs.String("store-dir", "", "directory for the durable cell store (empty disables; created if missing)"),
		storeMax:   fs.Int64("store-max-bytes", 0, "cell store payload budget in bytes (LRU eviction; 0 = unbounded)"),
		traceCache: fs.Int64("trace-cache-bytes", 32<<20, "cohort trace cache budget in bytes of encoded slab (LRU; memoizes generated traffic, its wait-rule replays — status-quo baselines, fixed tails, Oracles, 95% IAT timers, one pass per user and profile — and its trace-fitted policies across grid cells; <= 0 disables; never changes results)"),
	}
}

// run is the daemon body, factored out of main so the smoke test can
// drive it on an ephemeral port: parse args, serve until ctx cancels (the
// signal context in production), then drain the listener and close the
// manager. When ready is non-nil it receives the bound listen address
// once the daemon is accepting connections.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("rrcsimd", flag.ContinueOnError)
	f := registerFlags(fs)
	var (
		addr       = f.addr
		parallel   = f.parallel
		queueDepth = f.queueDepth
		cacheSize  = f.cacheSize
		cellCache  = f.cellCache
		runners    = f.runners
		pprofAddr  = f.pprofAddr
		storeDir   = f.storeDir
		storeMax   = f.storeMax
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag's disabled spelling is any non-positive budget; the
	// Config's zero value means "default", so disabled maps to -1.
	traceCacheBytes := *f.traceCache
	if traceCacheBytes <= 0 {
		traceCacheBytes = -1
	}

	// The store opens before the manager and closes after it: the manager
	// writes cells until its runners drain. Open recovers from whatever a
	// previous life left behind (partial temp files, a torn index tail),
	// so a SIGKILL'd daemon restarts with every fully-written cell intact.
	var cellStore *store.Store
	if *storeDir != "" {
		var err error
		cellStore, err = store.Open(store.Config{Dir: *storeDir, MaxBytes: *storeMax})
		if err != nil {
			return fmt.Errorf("cell store: %w", err)
		}
		defer cellStore.Close()
		fmt.Printf("rrcsimd: cell store %s (%d cells, %d bytes)\n",
			*storeDir, cellStore.Stats().Cells, cellStore.Stats().Bytes)
	}

	manager := jobs.NewManager(jobs.Config{
		QueueDepth:      *queueDepth,
		CacheSize:       *cacheSize,
		CellCacheSize:   *cellCache,
		Runners:         *runners,
		Workers:         *parallel,
		Store:           cellStore,
		TraceCacheBytes: traceCacheBytes,
	})
	defer manager.Close()

	// The profiling endpoints live on their own listener, never on the API
	// address: -addr is routinely exposed beyond localhost, and pprof leaks
	// heap contents and symbol names. The explicit mux carries only the
	// pprof handlers — importing net/http/pprof for its side effect would
	// register them on http.DefaultServeMux, which is a shared global this
	// daemon deliberately never serves.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: mux}
		go func() {
			fmt.Printf("rrcsimd: pprof on http://%s/debug/pprof/\n", pln.Addr())
			if err := pprofSrv.Serve(pln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "rrcsimd: pprof server:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := apiServer(server.New(manager))

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("rrcsimd: serving on %s (queue %d, cache %d, cell cache %d, runners %d)\n",
			ln.Addr(), *queueDepth, *cacheSize, *cellCache, *runners)
		errCh <- srv.Serve(ln)
	}()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case <-ctx.Done():
		fmt.Println("rrcsimd: shutting down")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if pprofSrv != nil {
		// Best-effort: an in-flight CPU profile may outlive the timeout;
		// the API listener's drain is the one that matters.
		defer pprofSrv.Shutdown(shutdownCtx)
	}
	return srv.Shutdown(shutdownCtx)
}

// API listener timeouts: a client that trickles its request headers, or
// parks an idle keep-alive connection, is cut off instead of holding a
// connection forever. There is deliberately no WriteTimeout, because
// /v1/jobs/{id}/stream stays open for as long as the job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// apiServer wraps the API handler in an http.Server with the listener
// timeouts applied.
func apiServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "rrcsimd:", err)
	os.Exit(1)
}
