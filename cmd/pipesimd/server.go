package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipesim"
	"pipesim/internal/eventbus"
	"pipesim/internal/jobs"
	"pipesim/internal/obs"
	"pipesim/internal/runcache"
	"pipesim/internal/runstore"
	"pipesim/internal/sweep"
	"pipesim/internal/tracing"
	"pipesim/internal/version"
)

// server is the pipesimd HTTP surface: simulation and sweep execution on
// top of the fault-isolated runner, plus the operator endpoints
// (/metrics, /healthz, /readyz, /debug/pprof, /version).
type server struct {
	log     *slog.Logger
	metrics *daemonMetrics
	mux     *http.ServeMux

	// tracer retains each request's span trace for GET /v1/trace/{id};
	// flights archives failed runs' flight-recorder tails for
	// GET /debug/flightrecorder.
	tracer  *tracing.Tracer
	flights *flightArchive

	// jobs is the durable sweep-job manager (-jobs-dir); nil disables
	// the /v1/jobs API.
	jobs *jobs.Manager

	// store is the persistent run archive (-store-dir): installed under
	// the run cache as its second tier and served on /v1/runs and
	// /v1/compare. Nil disables all three.
	store *runstore.Store

	// bus is the telemetry event bus behind GET /v1/events and
	// GET /v1/jobs/{id}/events; the job manager and sweep handler publish
	// into it. Closed by drain so every SSE stream ends cleanly.
	bus          *eventbus.Bus
	eventsBuffer int           // per-subscriber ring capacity (0 = bus default)
	sseHeartbeat time.Duration // SSE heartbeat-comment interval

	// ready gates /readyz: set once the benchmark image is warmed,
	// cleared when shutdown starts so load balancers drain the instance.
	ready atomic.Bool

	// draining is set when shutdown begins: work-accepting endpoints
	// (POST /v1/jobs, GET /v1/sweep) answer 503 + Retry-After instead of
	// accepting work the drain deadline would kill.
	draining atomic.Bool

	// reqSeq numbers requests; combined with the process start stamp it
	// yields a unique request ID for log correlation.
	reqSeq    atomic.Uint64
	startID   string
	maxBody   int64         // request body cap for /v1/run
	runLimit  time.Duration // per-simulation and per-sweep-experiment deadline
	workers   int           // sweep worker cap (0 = one per CPU)
	slowLimit time.Duration // slow-request log threshold (0 = off)
}

// newServer wires the handler tree. The returned server installs the
// process-wide run hook, so every simulation it executes feeds the
// metrics registry.
func newServer(log *slog.Logger, opts serverOptions) (*server, error) {
	s := &server{
		log:          log,
		metrics:      newDaemonMetrics(),
		mux:          http.NewServeMux(),
		tracer:       tracing.New(0),
		flights:      newFlightArchive(0),
		startID:      fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff),
		bus:          eventbus.New(),
		eventsBuffer: opts.eventsBuffer,
		sseHeartbeat: opts.sseHeartbeat,
		maxBody:      opts.maxBody,
		runLimit:     opts.runLimit,
		workers:      opts.workers,
		slowLimit:    opts.slowLimit,
	}
	if s.maxBody <= 0 {
		s.maxBody = 1 << 20
	}
	pipesim.SetRunHook(s.metrics.observeRun)
	s.tracer.OnSpanEnd(s.metrics.observeSpan)

	if opts.storeDir != "" {
		store, err := runstore.Open(opts.storeDir, runstore.Options{
			MaxEntries: opts.storeEntries,
			MaxBytes:   opts.storeBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("opening run store: %w", err)
		}
		s.store = store
		runcache.Default.SetStore(store)
		log.Info("run store open", "dir", opts.storeDir, "entries", store.Len(), "bytes", store.Bytes())
	}

	if opts.jobsDir != "" {
		m, err := s.newJobManager(opts)
		if err != nil {
			return nil, err
		}
		s.jobs = m
	}

	s.handle("POST /v1/run", "/v1/run", s.handleRun)
	s.handle("GET /v1/runs", "/v1/runs", s.handleRunsList)
	s.handle("GET /v1/runs/{key}", "/v1/runs/key", s.handleRunGet)
	s.handle("GET /v1/compare", "/v1/compare", s.handleCompare)
	s.handle("GET /v1/sweep", "/v1/sweep", s.handleSweep)
	s.handle("POST /v1/jobs", "/v1/jobs", s.handleJobSubmit)
	s.handle("GET /v1/jobs", "/v1/jobs", s.handleJobList)
	s.handle("GET /v1/jobs/{id}", "/v1/jobs/id", s.handleJobGet)
	s.handle("DELETE /v1/jobs/{id}", "/v1/jobs/id", s.handleJobCancel)
	s.handle("GET /v1/jobs/{id}/events", "/v1/jobs/id/events", s.handleJobEvents)
	s.handle("GET /v1/events", "/v1/events", s.handleEvents)
	s.handle("GET /v1/experiments", "/v1/experiments", s.handleExperiments)
	s.handle("GET /v1/trace/{id}", "/v1/trace", s.handleTrace)
	s.handle("GET /debug/flightrecorder", "/debug/flightrecorder", s.handleFlightRecorder)
	s.handle("GET /metrics", "/metrics", s.handleMetrics)
	s.handle("GET /healthz", "/healthz", s.handleHealthz)
	s.handle("GET /readyz", "/readyz", s.handleReadyz)
	s.handle("GET /version", "/version", s.handleVersion)

	// Profiling hooks: the stock net/http/pprof handlers on our own mux
	// (the daemon never touches http.DefaultServeMux).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// serverOptions carries the tunables from the command line into newServer.
type serverOptions struct {
	maxBody   int64
	runLimit  time.Duration
	workers   int
	slowLimit time.Duration

	// Persistent run archive (empty storeDir disables it).
	storeDir     string
	storeEntries int   // GC bound on archived records (0 = default)
	storeBytes   int64 // GC bound on archive bytes (0 = default)

	// Telemetry streaming (GET /v1/events).
	eventsBuffer int           // per-SSE-subscriber ring capacity (0 = 256)
	sseHeartbeat time.Duration // heartbeat-comment interval (0 = 15s)

	// Durable job subsystem (empty jobsDir disables it).
	jobsDir    string
	jobsQueue  int
	jobsPoints int
	// jobsFault is the chaos fault-injection hook, threaded through to
	// jobs.Options.InjectFault. Tests only.
	jobsFault func(jobID, pointID string, attempt int) error
}

// warm builds the process-wide Livermore benchmark image and its run-cache
// fingerprint (the expensive lazy initialisation every benchmark run
// needs; /v1/run and sweeps share the one image) and flips the readiness
// gate.
func (s *server) warm() error {
	img, err := sweep.BenchmarkImage()
	if err != nil {
		return err
	}
	img.Fingerprint()
	s.ready.Store(true)
	return nil
}

// drain starts the shutdown path: /readyz fails so load balancers stop
// routing here, and the work-accepting endpoints shed new sweeps and jobs
// with 503 + Retry-After instead of admitting work the drain deadline
// would kill. In-flight requests and the running job finish (the job by
// checkpointing; jobs.Manager.Close interrupts it).
// Closing the event bus wakes every SSE stream, which delivers its
// buffered events, writes a terminal "end" frame and returns — so the
// http.Server's Shutdown is not held open by long-lived streams.
func (s *server) drain() {
	s.ready.Store(false)
	s.draining.Store(true)
	s.bus.Close()
	// Detach the persistent tier so nothing writes through it while the
	// process winds down; archived records are already safely on disk.
	if s.store != nil {
		runcache.Default.SetStore(nil)
	}
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type ctxKey int

const logKey ctxKey = 0

// requestLog is a request's logger, built on first use: most requests log
// nothing at the daemon's level, so the request attributes are formatted
// only for those that do.
type requestLog struct {
	base             *slog.Logger
	id, method, path string
	once             sync.Once
	l                *slog.Logger
}

func (rl *requestLog) logger() *slog.Logger {
	rl.once.Do(func() { rl.l = rl.base.With("request_id", rl.id, "method", rl.method, "path", rl.path) })
	return rl.l
}

// reqLog returns the request-scoped logger installed by handle.
func reqLog(r *http.Request) *slog.Logger {
	if rl, ok := r.Context().Value(logKey).(*requestLog); ok {
		return rl.logger()
	}
	return slog.Default()
}

// maxClientRequestID caps an honored client-supplied X-Request-Id.
const maxClientRequestID = 64

// clientRequestID returns the request's sanitized X-Request-Id: the header
// value when it is non-empty, at most maxClientRequestID bytes and drawn
// from [A-Za-z0-9._-], otherwise "" (the caller generates one). The charset
// check keeps hostile IDs out of logs, trace keys and response headers.
func clientRequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > maxClientRequestID {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// handle registers one instrumented route: request counting and latency
// by route pattern (never by raw URL, so cardinality stays bounded), the
// in-flight gauge, the request ID (client-supplied when sane, generated
// otherwise), a request-scoped logger (built only if something logs), and
// a trace rooted at this request
// — joined to the caller's trace when the request carries a W3C
// traceparent header. The finished trace is retrievable at
// GET /v1/trace/{request_id}; requests slower than -slow-ms additionally
// log their span breakdown.
func (s *server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := clientRequestID(r)
		if id == "" {
			id = s.startID + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		}
		rl := &requestLog{base: s.log, id: id, method: r.Method, path: r.URL.Path}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		parent, _ := tracing.ParseTraceparent(r.Header.Get("traceparent"))
		ctx, root := s.tracer.StartTrace(r.Context(), r.Method+" "+route, id, parent)
		s.metrics.inFlight.Inc()
		start := time.Now()
		defer func() {
			elapsed := time.Since(start)
			s.metrics.inFlight.Dec()
			s.metrics.requests.With(route, strconv.Itoa(sw.code)).Inc()
			s.metrics.latency.With(route).Observe(elapsed.Seconds())
			root.SetAttr("code", strconv.Itoa(sw.code))
			root.End()
			if s.log.Enabled(ctx, slog.LevelInfo) {
				rl.logger().Info("request served", "code", sw.code, "elapsed", elapsed.Round(time.Microsecond))
			}
			if s.slowLimit > 0 && elapsed >= s.slowLimit {
				if td, ok := s.tracer.Get(id); ok {
					rl.logger().Warn("slow request", "elapsed", elapsed.Round(time.Millisecond),
						"threshold", s.slowLimit, "trace_id", td.TraceID, "spans", td.SpanBreakdown())
				}
			}
		}()
		w.Header().Set("X-Request-Id", id)
		h(sw, r.WithContext(context.WithValue(ctx, logKey, rl)))
	})
}

// apiError is the JSON error envelope every failing endpoint returns. The
// request ID is echoed so a client can quote it when pulling the request's
// trace or flight-recorder entry; RecentEvents carries the flight
// recorder's tail when the failure snapshotted one (deadlock or machine
// check).
type apiError struct {
	Error        string            `json:"error"`
	Kind         string            `json:"kind"`
	RequestID    string            `json:"request_id,omitempty"`
	RecentEvents []obs.EventRecord `json:"recent_events,omitempty"`
}

// errorKind maps an error to its taxonomy label (PR-1 error model).
func errorKind(err error) string {
	var dl *pipesim.DeadlockError
	var mc *pipesim.MachineCheckError
	var de *deadlineError
	var to *sweep.TimeoutError
	var pe *sweep.PanicError
	switch {
	case errors.Is(err, pipesim.ErrInvalidConfig):
		return errKindInvalidConfig
	case errors.As(err, &dl):
		return errKindDeadlock
	case errors.As(err, &mc):
		return errKindMachineCheck
	case errors.As(err, &de):
		return errKindDeadline
	case errors.As(err, &to):
		return errKindTimeout
	case errors.As(err, &pe):
		return errKindPanic
	default:
		return errKindInternal
	}
}

// httpStatus maps an error kind to a status code: configuration mistakes
// are the client's fault, everything else is the simulator's.
func httpStatus(kind string) int {
	switch kind {
	case errKindBadRequest, errKindInvalidConfig:
		return http.StatusBadRequest
	case errKindNotFound:
		return http.StatusNotFound
	case errKindQueueFull:
		return http.StatusTooManyRequests
	case errKindUnavailable:
		return http.StatusServiceUnavailable
	case errKindConflict:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// flightEvents extracts a failed run's flight-recorder snapshot, or nil
// for error kinds that carry none (a timed-out run's goroutine is
// abandoned mid-flight, so its recorder is still being written — only
// errors from a completed run end carry a stable tail).
func flightEvents(err error) []pipesim.ProbeEvent {
	var dl *pipesim.DeadlockError
	var mc *pipesim.MachineCheckError
	switch {
	case errors.As(err, &dl):
		return dl.Recent
	case errors.As(err, &mc):
		return mc.Recent
	}
	return nil
}

// fail counts, logs and renders one error response. Failures that carry a
// flight-recorder snapshot return it in the body and archive it for
// GET /debug/flightrecorder.
func (s *server) fail(w http.ResponseWriter, r *http.Request, kind string, err error) {
	s.metrics.errors.With(kind).Inc()
	code := httpStatus(kind)
	id := w.Header().Get("X-Request-Id")
	resp := apiError{Error: err.Error(), Kind: kind, RequestID: id}
	if events := flightEvents(err); len(events) > 0 {
		resp.RecentEvents = obs.Records(events)
		s.flights.add(id, kind, err, events)
	}
	reqLog(r).Error("request failed", "kind", kind, "code", code, "err", err)
	writeJSON(w, code, resp)
}

// writeJSON writes v as one line of compact JSON (pipe it to jq to read).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// runRequest is the /v1/run request body. Config is an overlay on the
// base machine: absent fields keep their base values, so a request can be
// as small as {} (the paper's default presentation point) or name a
// Table II arrangement and tweak one knob.
type runRequest struct {
	// TableII selects the base configuration by Table II name ("8-8",
	// "16-16", "16-32", "32-32"); empty selects DefaultConfig.
	TableII string `json:"table_ii,omitempty"`
	// Config overlays fields (pipesim.Config JSON field names) on the base.
	Config json.RawMessage `json:"config,omitempty"`
	// Asm runs a PIPE assembly program instead of the Livermore benchmark.
	Asm string `json:"asm,omitempty"`
	// Kernel runs a single Livermore loop (1..14).
	Kernel int `json:"kernel,omitempty"`
	// PerLoop collects per-Livermore-loop statistics (benchmark only).
	PerLoop bool `json:"per_loop,omitempty"`
}

// runResponse is the /v1/run success body. Key is the run's
// content-addressed identity (also in result.key) — quote it to
// GET /v1/runs/{key} or GET /v1/compare; Source says where the result came
// from: "simulated", "memory" (run cache) or "store" (-store-dir archive).
type runResponse struct {
	RequestID      string          `json:"request_id"`
	ElapsedSeconds float64         `json:"elapsed_seconds"`
	Key            string          `json:"key,omitempty"`
	Source         string          `json:"source,omitempty"`
	Result         *pipesim.Result `json:"result"`
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	req, kind, err := decodeRunRequest(ctx, w, r, s.maxBody)
	if err != nil {
		s.fail(w, r, kind, err)
		return
	}
	cfg, prog, kind, err := buildRunConfig(ctx, req)
	if err != nil {
		s.fail(w, r, kind, err)
		return
	}
	if s.log.Enabled(ctx, slog.LevelInfo) {
		reqLog(r).Info("run starting", "strategy", cfg.Strategy, "cache_bytes", cfg.CacheBytes,
			"line_bytes", cfg.LineBytes, "mem_access", cfg.MemAccessTime, "bus_bytes", cfg.BusWidthBytes)
	}

	start := time.Now()
	var (
		res    *pipesim.Result
		source pipesim.RunSource
	)
	if req.PerLoop {
		// Observed runs replay events, so they bypass the caches; archive
		// the result explicitly so it is referencable for comparisons.
		var sim *pipesim.Simulation
		sim, kind, err = observedSimulation(ctx, cfg, prog)
		if err != nil {
			s.fail(w, r, kind, err)
			return
		}
		res, err = s.runSim(ctx, sim)
		source = pipesim.RunSimulated
		if err == nil && s.store != nil {
			if aerr := sim.Archive(s.store); aerr != nil {
				reqLog(r).Warn("archiving run", "err", aerr)
			}
		}
	} else {
		res, source, err = s.runArchived(ctx, cfg, prog)
	}
	if err != nil {
		s.fail(w, r, errorKind(err), err)
		return
	}
	writeJSON(w, http.StatusOK, runResponse{
		RequestID:      w.Header().Get("X-Request-Id"),
		ElapsedSeconds: time.Since(start).Seconds(),
		Key:            res.Key,
		Source:         string(source),
		Result:         res,
	})
}

// decodeRunRequest reads and decodes the /v1/run body under a "decode"
// span. A non-nil error comes with its taxonomy kind.
func decodeRunRequest(ctx context.Context, w http.ResponseWriter, r *http.Request, maxBody int64) (runRequest, string, error) {
	_, span := tracing.StartSpan(ctx, "decode")
	defer span.End()
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req runRequest
	if err := dec.Decode(&req); err != nil {
		return req, errKindBadRequest, fmt.Errorf("decoding request body: %w", err)
	}
	return req, "", nil
}

// buildRunConfig resolves the request's base configuration, overlay and
// program — one "build" span covering everything between decode and the
// run itself.
func buildRunConfig(ctx context.Context, req runRequest) (pipesim.Config, *pipesim.Program, string, error) {
	_, span := tracing.StartSpan(ctx, "build")
	defer span.End()
	cfg := pipesim.DefaultConfig()
	if req.TableII != "" {
		var err error
		if cfg, err = pipesim.TableIIConfig(req.TableII); err != nil {
			return cfg, nil, errKindBadRequest, err
		}
	}
	if len(req.Config) > 0 {
		cdec := json.NewDecoder(bytes.NewReader(req.Config))
		cdec.DisallowUnknownFields()
		if err := cdec.Decode(&cfg); err != nil {
			return cfg, nil, errKindBadRequest, fmt.Errorf("decoding config overlay: %w", err)
		}
	}

	var (
		prog *pipesim.Program
		err  error
	)
	switch {
	case req.Asm != "" && req.Kernel != 0:
		return cfg, nil, errKindBadRequest, errors.New("asm and kernel are mutually exclusive")
	case req.Asm != "":
		prog, err = pipesim.Assemble(req.Asm)
	case req.Kernel != 0:
		prog, err = pipesim.LivermoreKernel(req.Kernel)
	default:
		prog, _, err = pipesim.LivermoreProgram()
	}
	if err != nil {
		return cfg, nil, errKindBadRequest, err
	}
	return cfg, prog, "", nil
}

// observedSimulation constructs (validating) a per-loop-collecting
// simulation for requests that need the live event stream.
func observedSimulation(ctx context.Context, cfg pipesim.Config, prog *pipesim.Program) (*pipesim.Simulation, string, error) {
	sim, err := pipesim.NewSimulation(cfg, prog)
	if err != nil {
		return nil, errorKind(err), err
	}
	if err := sim.CollectPerLoop(); err != nil {
		return nil, errKindBadRequest, fmt.Errorf("per_loop: %w", err)
	}
	return sim, "", nil
}

// runSim executes the simulation under a "run" span and the -run-timeout
// deadline.
func (s *server) runSim(ctx context.Context, sim *pipesim.Simulation) (*pipesim.Result, error) {
	_, span := tracing.StartSpan(ctx, "run")
	defer span.End()
	res, err := runWithDeadline(s.runLimit, sim.Run)
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	span.SetAttr("cycles", strconv.FormatUint(res.Cycles, 10))
	return res, nil
}

// runArchived serves the run through the two-tier run cache (memory →
// -store-dir archive → simulate) under a "run" span. A cached result is
// looked up and answered on the request's goroutine; only a miss
// simulates, under the -run-timeout deadline.
func (s *server) runArchived(ctx context.Context, cfg pipesim.Config, prog *pipesim.Program) (*pipesim.Result, pipesim.RunSource, error) {
	_, span := tracing.StartSpan(ctx, "run")
	defer span.End()
	var (
		res *pipesim.Result
		src = pipesim.RunSimulated
		ok  bool
	)
	run, err := pipesim.NewArchivedRun(cfg, prog)
	if err == nil {
		if res, src, ok = run.Lookup(ctx); !ok {
			res, err = runWithDeadline(s.runLimit, func() (*pipesim.Result, error) { return run.Simulate(ctx) })
		}
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, src, err
	}
	span.SetAttr("cycles", strconv.FormatUint(res.Cycles, 10))
	span.SetAttr("source", string(src))
	return res, src, nil
}

// deadlineError reports a /v1/run simulation that exceeded the daemon's
// -run-timeout wall-clock deadline. It is its own taxonomy kind
// ("deadline") so operators can tell serving deadlines from the sweep
// runner's per-experiment timeouts.
type deadlineError struct {
	Limit time.Duration
}

func (e *deadlineError) Error() string {
	return fmt.Sprintf("run exceeded the %s serving deadline (-run-timeout)", e.Limit)
}

// runWithDeadline executes a simulation with an optional wall-clock
// deadline, mirroring the sweep runner's isolation: a run that exceeds it
// is reported as a *deadlineError and its goroutine abandoned (the
// watchdog still bounds truly wedged machines).
func runWithDeadline(limit time.Duration, run func() (*pipesim.Result, error)) (*pipesim.Result, error) {
	if limit <= 0 {
		return run()
	}
	type reply struct {
		res *pipesim.Result
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		res, err := run()
		ch <- reply{res, err}
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case rp := <-ch:
		return rp.res, rp.err
	case <-timer.C:
		return nil, &deadlineError{Limit: limit}
	}
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
		s.fail(w, r, errKindUnavailable, errors.New("draining: not accepting sweeps"))
		return
	}
	q := r.URL.Query()
	exps := sweep.Experiments()
	if raw := q.Get("exp"); raw != "" {
		exps = exps[:0:0]
		for _, id := range strings.Split(raw, ",") {
			e, ok := sweep.Lookup(strings.TrimSpace(id))
			if !ok {
				s.fail(w, r, errKindBadRequest, fmt.Errorf("unknown experiment %q (GET /v1/experiments lists them)", id))
				return
			}
			exps = append(exps, e)
		}
	}
	opt := sweep.Options{Workers: s.workers, Timeout: s.runLimit, Context: r.Context(), Events: s.bus}
	if raw := q.Get("parallel"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.fail(w, r, errKindBadRequest, fmt.Errorf("bad parallel %q", raw))
			return
		}
		opt.Workers = n
	}
	if raw := q.Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			s.fail(w, r, errKindBadRequest, fmt.Errorf("bad timeout %q", raw))
			return
		}
		opt.Timeout = d
	}
	l := reqLog(r)
	l.Info("sweep starting", "experiments", len(exps), "workers", opt.Workers, "timeout", opt.Timeout)
	opt.Progress = func(o sweep.Outcome, done, total int) {
		if o.Err != nil {
			l.Warn("sweep experiment failed", "experiment", o.Experiment.ID,
				"done", done, "total", total, "err", o.Err)
		} else {
			l.Debug("sweep experiment finished", "experiment", o.Experiment.ID,
				"done", done, "total", total, "elapsed", o.Elapsed.Round(time.Millisecond))
		}
	}

	sum := sweep.RunAll(exps, opt)
	reqID := w.Header().Get("X-Request-Id")
	for _, o := range sum.Outcomes {
		if o.Err != nil {
			s.metrics.sweepExperiments.With("fail").Inc()
			kind := errorKind(o.Err)
			s.metrics.errors.With(kind).Inc()
			// A deadlocked or machine-checked experiment carries its
			// flight-recorder tail; the summary JSON only has the error
			// string, so archive the events for /debug/flightrecorder.
			if events := flightEvents(o.Err); len(events) > 0 {
				s.flights.add(reqID+"/"+o.Experiment.ID, kind, o.Err, events)
			}
			continue
		}
		s.metrics.sweepExperiments.With("ok").Inc()
		if t, ok := o.BucketTotals(); ok {
			s.metrics.addSweepAttribution(t)
		}
		if t, ok := o.CacheTotals(); ok {
			s.metrics.addSweepCache(t)
		}
	}

	w.Header().Set("Content-Type", "application/json")
	if sum.Err() != nil {
		// Partial failure: the summary still carries every outcome, and
		// the per-outcome ok/error fields say which failed.
		w.WriteHeader(http.StatusInternalServerError)
	}
	if err := sum.WriteJSON(w); err != nil {
		l.Error("writing sweep summary", "err", err)
	}
}

// handleTrace serves a retained request trace: the native JSON form by
// default, Chrome-trace JSON with ?format=chrome (load in Perfetto or
// chrome://tracing).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td, ok := s.tracer.Get(id)
	if !ok {
		s.fail(w, r, errKindNotFound,
			fmt.Errorf("no retained trace for request id %q (the LRU keeps the most recent %d)", id, tracing.DefaultTraceCapacity))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := td.WriteJSON(w); err != nil {
			reqLog(r).Error("writing trace", "err", err)
		}
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		if err := td.WriteChrome(w); err != nil {
			reqLog(r).Error("writing trace", "err", err)
		}
	default:
		s.fail(w, r, errKindBadRequest, fmt.Errorf("bad format %q (want json or chrome)", format))
	}
}

// handleFlightRecorder serves the archived flight-recorder tails of failed
// runs, newest first.
func (s *server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.flights.snapshot())
}

func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []item
	for _, e := range sweep.Experiments() {
		out = append(out, item{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.syncRunCache()
	s.metrics.syncRunStore(s.store)
	s.metrics.syncEventBus(s.bus)
	if s.jobs != nil {
		s.metrics.jobsQueued.Set(float64(s.jobs.QueueDepth()))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		reqLog(r).Error("rendering metrics", "err", err)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, version.Get())
}
