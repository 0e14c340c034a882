package main

import (
	"strconv"
	"strings"
	"sync"

	"pipesim"
	"pipesim/internal/eventbus"
	"pipesim/internal/metrics"
	"pipesim/internal/runcache"
	"pipesim/internal/runstore"
	"pipesim/internal/sweep"
	"pipesim/internal/tracing"
	"pipesim/internal/version"
)

// daemonMetrics bundles every metric family the daemon exports on
// /metrics. Names follow the Prometheus conventions: a pipesimd_ prefix,
// _total on counters, base units (seconds, cycles) in the name.
type daemonMetrics struct {
	reg *metrics.Registry

	// HTTP serving surface.
	requests  *metrics.CounterVec   // pipesimd_http_requests_total{route,code}
	latency   *metrics.HistogramVec // pipesimd_http_request_seconds{route}
	inFlight  *metrics.Gauge        // pipesimd_http_in_flight
	buildInfo *metrics.GaugeVec     // pipesimd_build_info{module,version,vcs_revision,go_version}

	// Simulation runs (fed by the pipesim.RunHook, so every Run in the
	// process is counted no matter which handler triggered it).
	runs      *metrics.CounterVec   // pipesimd_runs_total{strategy,outcome}
	runCycles *metrics.HistogramVec // pipesimd_run_cycles{strategy}
	runTime   *metrics.HistogramVec // pipesimd_run_seconds{strategy}

	// Error taxonomy (PR-1): validation, watchdog and machine-check
	// failures, plus the runner's timeout/panic isolation.
	errors *metrics.CounterVec // pipesimd_errors_total{kind}

	// Probe-derived attribution totals: every simulated cycle the daemon
	// executed, classified by the exact per-cycle attribution buckets.
	attribution *metrics.CounterVec // pipesimd_attribution_cycles_total{bucket}

	// Cache-introspection totals (runs and sweep points that enabled
	// Config.CacheStats): miss counts by 3C class, plus the per-set
	// miss/dead-eviction heatmap of the most recent introspected run.
	cacheMiss    *metrics.CounterVec // pipesimd_cache_miss_total{class}
	cacheSetMiss *metrics.GaugeVec   // pipesimd_cache_set_misses{set}
	cacheSetDead *metrics.GaugeVec   // pipesimd_cache_set_dead_evictions{set}

	// Sweep experiments through /v1/sweep.
	sweepExperiments *metrics.CounterVec // pipesimd_sweep_experiments_total{outcome}

	// Durable sweep jobs (POST /v1/jobs). jobsQueued is synced from the
	// manager at scrape time.
	jobsSubmitted *metrics.CounterVec // pipesimd_jobs_submitted_total{outcome}
	jobsFinished  *metrics.CounterVec // pipesimd_jobs_finished_total{state}
	jobsActive    *metrics.Gauge      // pipesimd_jobs_active
	jobsQueued    *metrics.Gauge      // pipesimd_jobs_queue_depth
	jobPoints     *metrics.CounterVec // pipesimd_job_points_total{outcome}

	// Request-stage latency, fed from span completions (tracing.OnSpanEnd):
	// one observation per finished span, labelled by stage name.
	stageTime *metrics.HistogramVec // pipesimd_stage_seconds{stage}

	// Content-addressed run cache (internal/runcache). The cache keeps its
	// own monotonic counters; syncRunCache folds their growth into these
	// families at scrape time.
	runcacheHits      *metrics.Counter // pipesimd_runcache_hits_total
	runcacheMisses    *metrics.Counter // pipesimd_runcache_misses_total
	runcacheEvictions *metrics.Counter // pipesimd_runcache_evictions_total
	runcacheSize      *metrics.Gauge   // pipesimd_runcache_entries

	// Telemetry event bus (GET /v1/events). The bus keeps its own atomic
	// counters; syncEventBus folds their growth in at scrape time, like
	// the run cache.
	eventsPublished   *metrics.Counter // pipesimd_eventbus_published_total
	eventsDropped     *metrics.Counter // pipesimd_eventbus_dropped_total
	eventsSubscribers *metrics.Gauge   // pipesimd_eventbus_subscribers

	// Persistent run store (-store-dir), the run cache's disk tier.
	// Scrape-time delta fold like the run cache.
	runstoreHits      *metrics.Counter // pipesimd_runstore_hits_total
	runstoreMisses    *metrics.Counter // pipesimd_runstore_misses_total
	runstoreWrites    *metrics.Counter // pipesimd_runstore_writes_total
	runstoreEvictions *metrics.Counter // pipesimd_runstore_evictions_total
	runstoreEntries   *metrics.Gauge   // pipesimd_runstore_entries
	runstoreBytes     *metrics.Gauge   // pipesimd_runstore_bytes

	rcMu   sync.Mutex
	rcLast runcache.Counters // counter values already folded in

	rsMu   sync.Mutex
	rsLast runstore.Counters // store counter values already folded in

	ebMu                           sync.Mutex
	ebLastPublished, ebLastDropped uint64 // bus counters already folded in
}

// Error-kind label values for pipesimd_errors_total.
const (
	errKindBadRequest    = "bad_request"
	errKindInvalidConfig = "invalid_config"
	errKindDeadlock      = "deadlock"
	errKindMachineCheck  = "machine_check"
	errKindDeadline      = "deadline" // /v1/run exceeded -run-timeout
	errKindTimeout       = "timeout"  // sweep experiment exceeded its deadline
	errKindPanic         = "panic"
	errKindNotFound      = "not_found"
	errKindInternal      = "internal"
	errKindUnavailable   = "unavailable" // draining, or a disabled subsystem
	errKindQueueFull     = "queue_full"  // job admission queue at capacity
	errKindConflict      = "conflict"    // e.g. cancelling a finished job
)

// newDaemonMetrics registers every family on a fresh registry.
func newDaemonMetrics() *daemonMetrics {
	reg := metrics.NewRegistry()
	m := &daemonMetrics{
		reg: reg,
		requests: reg.CounterVec("pipesimd_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: reg.HistogramVec("pipesimd_http_request_seconds",
			"HTTP request latency in seconds, by route.", nil, "route"),
		inFlight: reg.Gauge("pipesimd_http_in_flight",
			"HTTP requests currently being served."),
		buildInfo: reg.GaugeVec("pipesimd_build_info",
			"Build metadata of the running daemon; the value is always 1.",
			"module", "version", "vcs_revision", "go_version"),
		runs: reg.CounterVec("pipesimd_runs_total",
			"Simulation runs, by fetch strategy and outcome.", "strategy", "outcome"),
		runCycles: reg.HistogramVec("pipesimd_run_cycles",
			"Simulated cycle count per completed run, by fetch strategy.",
			metrics.ExponentialBuckets(1e3, 4, 12), "strategy"),
		runTime: reg.HistogramVec("pipesimd_run_seconds",
			"Wall-clock seconds per run, by fetch strategy.", nil, "strategy"),
		errors: reg.CounterVec("pipesimd_errors_total",
			"Failures by kind: bad_request, invalid_config, deadlock (watchdog), "+
				"machine_check, deadline (-run-timeout), timeout (sweep experiment), "+
				"panic, not_found, internal.", "kind"),
		attribution: reg.CounterVec("pipesimd_attribution_cycles_total",
			"Simulated cycles executed by this daemon, classified by the exact "+
				"per-cycle attribution bucket.", "bucket"),
		cacheMiss: reg.CounterVec("pipesimd_cache_miss_total",
			"Instruction-cache misses of introspected runs (Config.CacheStats), "+
				"by 3C class: compulsory, capacity, conflict.", "class"),
		cacheSetMiss: reg.GaugeVec("pipesimd_cache_set_misses",
			"Per-set miss counts of the most recent introspected run.", "set"),
		cacheSetDead: reg.GaugeVec("pipesimd_cache_set_dead_evictions",
			"Per-set dead-on-eviction counts of the most recent introspected run.", "set"),
		sweepExperiments: reg.CounterVec("pipesimd_sweep_experiments_total",
			"Sweep experiments executed through /v1/sweep, by outcome.", "outcome"),
		jobsSubmitted: reg.CounterVec("pipesimd_jobs_submitted_total",
			"Job submissions, by outcome: accepted, rejected_full (admission "+
				"queue at capacity), rejected_draining, rejected_invalid.", "outcome"),
		jobsFinished: reg.CounterVec("pipesimd_jobs_finished_total",
			"Jobs that reached a terminal state, by state: done, failed, cancelled.",
			"state"),
		jobsActive: reg.Gauge("pipesimd_jobs_active",
			"Jobs currently executing points."),
		jobsQueued: reg.Gauge("pipesimd_jobs_queue_depth",
			"Jobs admitted but not yet finished (queued plus running)."),
		jobPoints: reg.CounterVec("pipesimd_job_points_total",
			"Job experiment points, by outcome: ok, resumed (replayed from "+
				"checkpoint), retry, failed.", "outcome"),
		stageTime: reg.HistogramVec("pipesimd_stage_seconds",
			"Wall-clock seconds per traced request stage (decode, build, run, "+
				"runcache.lookup, simulate, experiment, root spans).", nil, "stage"),
		runcacheHits: reg.Counter("pipesimd_runcache_hits_total",
			"Run-cache lookups answered from a memoized simulation result."),
		runcacheMisses: reg.Counter("pipesimd_runcache_misses_total",
			"Run-cache lookups that required a fresh simulation."),
		runcacheEvictions: reg.Counter("pipesimd_runcache_evictions_total",
			"Run-cache entries evicted by the LRU bound."),
		runcacheSize: reg.Gauge("pipesimd_runcache_entries",
			"Simulation results currently memoized in the run cache."),
		runstoreHits: reg.Counter("pipesimd_runstore_hits_total",
			"Run-store lookups answered from the persistent archive (-store-dir)."),
		runstoreMisses: reg.Counter("pipesimd_runstore_misses_total",
			"Run-store lookups that found no archived record."),
		runstoreWrites: reg.Counter("pipesimd_runstore_writes_total",
			"Simulation results archived to the persistent run store."),
		runstoreEvictions: reg.Counter("pipesimd_runstore_evictions_total",
			"Archived records evicted by the store's count/byte bounds."),
		runstoreEntries: reg.Gauge("pipesimd_runstore_entries",
			"Records currently in the persistent run store."),
		runstoreBytes: reg.Gauge("pipesimd_runstore_bytes",
			"Bytes of records currently in the persistent run store."),
		eventsPublished: reg.Counter("pipesimd_eventbus_published_total",
			"Telemetry events published to the event bus."),
		eventsDropped: reg.Counter("pipesimd_eventbus_dropped_total",
			"Telemetry events dropped because a subscriber's ring was full "+
				"(slow SSE consumers lose the oldest events, never block publishers)."),
		eventsSubscribers: reg.Gauge("pipesimd_eventbus_subscribers",
			"Live event-bus subscriptions (open SSE streams)."),
	}
	v := version.Get()
	m.buildInfo.With(v.Module, v.Version, v.ShortRevision(), v.GoVersion).Set(1)
	return m
}

// observeRun is the pipesim.RunHook: one call per completed simulation
// run anywhere in the process.
func (m *daemonMetrics) observeRun(ri pipesim.RunInfo) {
	strategy := string(ri.Config.Strategy)
	outcome := "ok"
	if ri.Err != nil {
		outcome = errorKind(ri.Err)
	}
	m.runs.With(strategy, outcome).Inc()
	m.runTime.With(strategy).Observe(ri.Elapsed.Seconds())
	if ri.Result != nil {
		m.runCycles.With(strategy).Observe(float64(ri.Result.Cycles))
		m.addAttribution(ri.Result.Attribution)
		if cs := ri.Result.CacheStats; cs != nil {
			m.addCacheStats(cs)
		}
	}
}

// addCacheStats folds one introspected run's miss classes into the class
// counters and snapshots its per-set heatmap into the gauges (the gauges
// describe the most recent introspected run; sets beyond this run's count
// keep stale values, so dashboards should filter on the run's set range).
func (m *daemonMetrics) addCacheStats(cs *pipesim.CacheStats) {
	m.cacheMiss.With("compulsory").Add(float64(cs.Compulsory))
	m.cacheMiss.With("capacity").Add(float64(cs.Capacity))
	m.cacheMiss.With("conflict").Add(float64(cs.Conflict))
	for i, s := range cs.Sets {
		set := strconv.Itoa(i)
		m.cacheSetMiss.With(set).Set(float64(s.Misses))
		m.cacheSetDead.With(set).Set(float64(s.DeadEvictions))
	}
}

// addSweepCache folds a sweep outcome's aggregated miss classes in (sweep
// points bypass the run hook, like addSweepAttribution).
func (m *daemonMetrics) addSweepCache(t sweep.CacheTotals) {
	m.cacheMiss.With("compulsory").Add(float64(t.Compulsory))
	m.cacheMiss.With("capacity").Add(float64(t.Capacity))
	m.cacheMiss.With("conflict").Add(float64(t.Conflict))
}

// observeSpan is the tracing OnSpanEnd hook: one stage-latency observation
// per finished span. Per-experiment span names ("experiment:fig5a") fold
// into one "experiment" stage so the label set stays bounded. The span's
// trace ID rides along as the bucket's exemplar, so a slow histogram
// bucket links straight to a trace that landed in it (GET /v1/trace/{id}
// via the request ID logged with that trace).
func (m *daemonMetrics) observeSpan(sp *tracing.Span) {
	stage := sp.Name()
	if i := strings.IndexByte(stage, ':'); i >= 0 {
		stage = stage[:i]
	}
	m.stageTime.With(stage).ObserveExemplar(sp.Duration().Seconds(), sp.TraceIDString())
}

// addAttribution folds one run's exact attribution into the totals.
func (m *daemonMetrics) addAttribution(a pipesim.Attribution) {
	m.attribution.With("issue").Add(float64(a.Issue))
	m.attribution.With("fetch_starved").Add(float64(a.FetchStarved))
	m.attribution.With("ldq_wait").Add(float64(a.LDQWait))
	m.attribution.With("queue_full").Add(float64(a.QueueFull))
	m.attribution.With("drain").Add(float64(a.Drain))
	m.attribution.With("other").Add(float64(a.Other))
}

// syncRunCache folds the run cache's counter growth since the previous
// sync into the exported families and refreshes the size gauge. The cache
// counts monotonically; the registry's counters only support Add, so the
// exporter tracks the last folded snapshot and adds deltas. Called at
// scrape time — between scrapes the cache counts for itself.
func (m *daemonMetrics) syncRunCache() {
	cur := runcache.Default.Stats()
	m.rcMu.Lock()
	last := m.rcLast
	m.rcLast = cur
	m.rcMu.Unlock()
	m.runcacheHits.Add(float64(cur.Hits - last.Hits))
	m.runcacheMisses.Add(float64(cur.Misses - last.Misses))
	m.runcacheEvictions.Add(float64(cur.Evictions - last.Evictions))
	m.runcacheSize.Set(float64(cur.Size))
}

// syncRunStore folds the persistent run store's counter growth into the
// exported families and refreshes the size gauges, mirroring syncRunCache's
// scrape-time delta fold. No-op without -store-dir.
func (m *daemonMetrics) syncRunStore(store *runstore.Store) {
	if store == nil {
		return
	}
	cur := store.Counters()
	m.rsMu.Lock()
	last := m.rsLast
	m.rsLast = cur
	m.rsMu.Unlock()
	m.runstoreHits.Add(float64(cur.Hits - last.Hits))
	m.runstoreMisses.Add(float64(cur.Misses - last.Misses))
	m.runstoreWrites.Add(float64(cur.Writes - last.Writes))
	m.runstoreEvictions.Add(float64(cur.Evictions - last.Evictions))
	m.runstoreEntries.Set(float64(cur.Entries))
	m.runstoreBytes.Set(float64(cur.Bytes))
}

// syncEventBus folds the event bus's publish/drop counter growth into the
// exported families and refreshes the subscriber gauge, mirroring
// syncRunCache's scrape-time delta fold.
func (m *daemonMetrics) syncEventBus(b *eventbus.Bus) {
	pub, drop := b.Published(), b.Dropped()
	m.ebMu.Lock()
	dPub, dDrop := pub-m.ebLastPublished, drop-m.ebLastDropped
	m.ebLastPublished, m.ebLastDropped = pub, drop
	m.ebMu.Unlock()
	m.eventsPublished.Add(float64(dPub))
	m.eventsDropped.Add(float64(dDrop))
	m.eventsSubscribers.Set(float64(b.Subscribers()))
}

// addSweepAttribution folds a sweep outcome's aggregated buckets in (the
// sweep runner drives internal/core directly, bypassing the run hook).
func (m *daemonMetrics) addSweepAttribution(t sweep.BucketTotals) {
	m.attribution.With("issue").Add(float64(t.Issue))
	m.attribution.With("fetch_starved").Add(float64(t.FetchStarved))
	m.attribution.With("ldq_wait").Add(float64(t.LDQWait))
	m.attribution.With("queue_full").Add(float64(t.QueueFull))
	m.attribution.With("drain").Add(float64(t.Drain))
	m.attribution.With("other").Add(float64(t.Other))
}
