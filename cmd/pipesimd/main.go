// Command pipesimd serves the PIPE simulator over HTTP for long-running,
// many-experiment workloads.
//
// Endpoints:
//
//	POST /v1/run              run one simulation (JSON config overlay)
//	GET  /v1/runs             list archived runs, newest first (needs -store-dir)
//	GET  /v1/runs/{key}       one archived run record by content-addressed key
//	GET  /v1/compare?a=&b=    differential report between two archived runs
//	GET  /v1/sweep            run Table-II-style sweeps (fault-isolated runner)
//	POST /v1/jobs             submit a durable sweep job (202 + job id; needs -jobs-dir)
//	GET  /v1/jobs             list jobs by submit time (?state= filters)
//	GET  /v1/jobs/{id}        job status, progress and partial results
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	GET  /v1/jobs/{id}/events stream one job's events (SSE; Last-Event-ID resumes)
//	GET  /v1/events           stream the telemetry firehose (SSE; ?kind=, ?job=)
//	GET  /v1/experiments      list sweep experiment IDs
//	GET  /v1/trace/{id}       span trace of a recent request (?format=chrome for Perfetto)
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness (always ok while the process serves)
//	GET  /readyz              readiness (503 until warmed, and again while draining)
//	GET  /version             build / VCS metadata
//	GET  /debug/pprof/        runtime profiling (net/http/pprof)
//	GET  /debug/flightrecorder  flight-recorder tails of recent failed runs
//
// Every request gets a span trace (joined to the caller's W3C traceparent
// when one is sent) retrievable by request ID; clients may supply their own
// X-Request-Id (64 bytes max, [A-Za-z0-9._-]). Failed simulations carry the
// flight recorder's recent-event tail in the error body.
//
// With -jobs-dir the daemon runs durable sweep jobs: every completed
// experiment point is checkpointed to a per-job JSONL file keyed by the
// runcache content hash, so a crashed or drained daemon resumes exactly
// the missing points on restart. Admission is bounded (-jobs-queue); a
// full queue sheds load with 429 + Retry-After.
//
// Everything the daemon does is narrated live on an in-process telemetry
// bus: job lifecycle, per-point outcomes, retries, backoff waits,
// checkpoint appends and sweep progress. GET /v1/events streams the
// firehose as Server-Sent Events; GET /v1/jobs/{id}/events streams one
// job with exactly-once point outcomes — the SSE event ID is the job's
// outcome-log index, persisted in the checkpoint, so Last-Event-ID
// resumes precisely even across a daemon crash. Slow consumers lose the
// oldest events rather than slowing the simulator
// (pipesimd_eventbus_dropped_total counts the loss).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: readiness drops
// immediately, new sweeps and job submissions get 503 + Retry-After,
// in-flight requests get -drain to finish, the running job checkpoints
// and stops, then the listener closes.
//
// Usage:
//
//	pipesimd                       # listen on :8974
//	pipesimd -addr 127.0.0.1:9000  # pick the listen address
//	pipesimd -log json             # JSON log records instead of text
//	pipesimd -drain 10s            # shutdown drain deadline
//	pipesimd -run-timeout 2m       # per-simulation / per-experiment deadline
//	pipesimd -runcache=false       # disable simulation-result memoization
//	pipesimd -store-dir /var/lib/pipesimd/runs  # persistent run archive:
//	                               # warm starts survive restarts, /v1/runs,
//	                               # /v1/compare and `pipesim diff` work off it
//	pipesimd -jobs-dir /var/lib/pipesimd/jobs  # enable durable sweep jobs
//	pipesimd -jobs-queue 16        # admitted-but-unfinished job bound (429 beyond)
//	pipesimd -jobs-points 4        # concurrent points per job (0 = one per CPU)
//	pipesimd -slow-ms 500          # log span breakdowns of requests over 500ms
//	pipesimd -events-buffer 1024   # per-SSE-stream event ring (drops beyond)
//	pipesimd -sse-heartbeat 30s    # SSE keepalive comment interval
//	pipesimd -version              # print build/VCS info and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pipesim/internal/runcache"
	"pipesim/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8974", "listen address")
		logMode    = flag.String("log", "text", "log handler: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
		runTimeout = flag.Duration("run-timeout", 5*time.Minute, "per-simulation and per-sweep-experiment deadline; cached /v1/run results are answered without one (0 = none)")
		maxBody    = flag.Int64("max-body", 1<<20, "maximum /v1/run request body in bytes")
		workers    = flag.Int("parallel", 0, "default sweep worker count (0 = one per CPU)")
		useCache   = flag.Bool("runcache", true, "memoize simulation results by (config, program) content hash")
		storeDir   = flag.String("store-dir", "", "persistent run-archive directory: results survive restarts and feed /v1/runs and /v1/compare (empty = disabled)")
		storeN     = flag.Int("store-entries", 0, "run-archive record bound; oldest evicted beyond it (0 = 16384)")
		storeBytes = flag.Int64("store-bytes", 0, "run-archive byte bound; oldest evicted beyond it (0 = 256 MiB)")
		jobsDir    = flag.String("jobs-dir", "", "directory for durable sweep-job manifests and checkpoints (empty = jobs API disabled)")
		jobsQueue  = flag.Int("jobs-queue", 0, "admitted-but-unfinished job bound; submissions beyond it get 429 (0 = default 16)")
		jobsPoints = flag.Int("jobs-points", 0, "concurrent experiment points per job (0 = one per CPU)")
		slowMS     = flag.Int64("slow-ms", 0, "log the span breakdown of requests slower than this many milliseconds (0 = off)")
		eventsBuf  = flag.Int("events-buffer", 0, "per-SSE-stream event ring capacity; a stalled stream drops the oldest beyond it (0 = 256)")
		sseHB      = flag.Duration("sse-heartbeat", 0, "SSE heartbeat-comment interval (0 = 15s)")
		showVer    = flag.Bool("version", false, "print module, version, VCS revision and dirty bit, then exit")
	)
	flag.Parse()
	runcache.Default.SetEnabled(*useCache)

	if *showVer {
		fmt.Println(version.Get())
		return 0
	}

	log, err := newLogger(os.Stderr, *logMode, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipesimd: %v\n", err)
		return 2
	}

	srv, err := newServer(log, serverOptions{
		maxBody:      *maxBody,
		runLimit:     *runTimeout,
		workers:      *workers,
		slowLimit:    time.Duration(*slowMS) * time.Millisecond,
		storeDir:     *storeDir,
		storeEntries: *storeN,
		storeBytes:   *storeBytes,
		eventsBuffer: *eventsBuf,
		sseHeartbeat: *sseHB,
		jobsDir:      *jobsDir,
		jobsQueue:    *jobsQueue,
		jobsPoints:   *jobsPoints,
	})
	if err != nil {
		log.Error("starting server", "err", err)
		return 1
	}

	v := version.Get()
	log.Info("pipesimd starting", "addr", *addr, "revision", v.ShortRevision(),
		"go", v.GoVersion, "drain", *drain, "run_timeout", *runTimeout)

	// Warm the shared benchmark image before accepting readiness probes:
	// the first /v1/run would otherwise eat the lazy build cost.
	if err := srv.warm(); err != nil {
		log.Error("warming benchmark image", "err", err)
		return 1
	}
	if srv.jobs != nil {
		resumed, err := srv.jobs.Recover()
		if err != nil {
			log.Error("recovering jobs", "dir", *jobsDir, "err", err)
			return 1
		}
		if resumed > 0 {
			log.Info("resuming interrupted jobs", "count", resumed, "dir", *jobsDir)
		}
	}
	log.Info("pipesimd ready")

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(log.Handler(), slog.LevelWarn),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	select {
	case err := <-serveErr:
		log.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	stop() // a second signal kills the process immediately
	log.Info("shutting down", "drain", *drain)
	srv.drain()
	sdCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		log.Warn("drain deadline exceeded, closing", "err", err)
		hs.Close()
		if srv.jobs != nil {
			srv.jobs.Close(sdCtx)
		}
		return 1
	}
	if srv.jobs != nil {
		// Interrupt the running job (its completed points are already
		// checkpointed; the next start resumes the rest) and wait for the
		// executor to stop within the drain budget.
		if err := srv.jobs.Close(sdCtx); err != nil {
			log.Warn("job executor did not stop before the drain deadline", "err", err)
		}
	}
	log.Info("pipesimd stopped")
	return 0
}

// newLogger builds the text or JSON slog handler selected on the command
// line (shared flag convention with cmd/experiments).
func newLogger(w *os.File, mode, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log %q (want text or json)", mode)
	}
}
