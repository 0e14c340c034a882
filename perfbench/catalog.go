package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"pipesim/internal/compare"
	"pipesim/internal/kernels"
	"pipesim/internal/runcache"
	"pipesim/internal/sweep"
	"pipesim/internal/tracing"
)

// catalogPassSeconds is how long one full catalog pass takes on the
// two-core reference host; -seconds buys one pass per this many seconds.
const catalogPassSeconds = 10

// catalogSetupReps is how many times the set-up is repeated; setup_s is
// the median.
const catalogSetupReps = 25

// runCatalog is the paper's reproduction path: every experiment of
// sweep.Experiments() through sweep.RunAll on two workers, starting from
// a cold run cache with no store tier, checked point by point against the
// golden catalog.
func runCatalog(ctx context.Context, e *env, res *result) error {
	var (
		g      *golden
		setups []float64
	)
	for i := 0; i < catalogSetupReps; i++ {
		t0 := time.Now()
		if _, _, err := kernels.Program(); err != nil {
			return fmt.Errorf("building the benchmark image: %w", err)
		}
		var err error
		if g, err = loadGolden(e.root); err != nil {
			return err
		}
		runcache.Default.Reset()
		setups = append(setups, time.Since(t0).Seconds())
	}
	if _, err := sweep.BenchmarkImage(); err != nil {
		return fmt.Errorf("building the benchmark image: %w", err)
	}
	res.median("setup_s", "s", setups)

	exps := sweep.Experiments()

	passes := (e.seconds + catalogPassSeconds/2) / catalogPassSeconds
	if passes < 1 {
		passes = 1
	}
	// Each pass is checked as soon as it ends and its summary dropped, so
	// the process holds one pass's results at a time.
	var untraced []catalogPass
	run := func(i int, traced bool) (catalogPass, error) {
		p, err := catalogRun(ctx, exps, traced)
		if err != nil {
			return p, err
		}
		first := p.counters
		if len(untraced) > 0 {
			first = untraced[0].counters
		}
		checkCatalogPass(res, g, p, first, i)
		p.summary = nil
		return p, nil
	}
	for i := 0; i < passes; i++ {
		p, err := run(i, false)
		if err != nil {
			return err
		}
		untraced = append(untraced, p)
	}

	var walls, wallsMS, cpus, hits, misses, gcs, pauses, allocs []float64
	for _, p := range untraced {
		walls = append(walls, p.wall)
		wallsMS = append(wallsMS, 1000*p.wall)
		cpus = append(cpus, p.cpu)
		hits = append(hits, p.hits)
		misses = append(misses, p.misses)
		gcs = append(gcs, p.gcCycles)
		pauses = append(pauses, p.gcPauseMS)
		allocs = append(allocs, p.allocMB)
	}
	res.median("wall_s", "s", walls)
	res.median("cpu_s", "s", cpus)
	// What a catalog user waits for is the whole catalog: its latency
	// samples are the passes.
	passLatency := [][]float64{wallsMS}
	res.runPercentile("latency_p50_ms", "ms", passLatency, 50)
	res.runPercentile("latency_p90_ms", "ms", passLatency, 90)
	res.runPercentile("latency_p99_ms", "ms", passLatency, 99)
	res.set("peak_rss_mb", "MiB", peakRSSSelf())
	untraced[0].counters.report(res)
	res.median("runcache.hits", "count", hits)
	res.median("runcache.misses", "count", misses)
	res.median("runtime.gc_cycles", "count", gcs)
	res.median("runtime.gc_pause_ms", "ms", pauses)
	res.median("runtime.alloc_mb", "MiB", allocs)
	if !e.traced {
		return nil
	}

	tp, err := run(passes, true)
	if err != nil {
		return err
	}
	sp := tp.spans
	res.set("sweep.simulate_s", "s", sp.simulate.Seconds())
	res.set("sweep.self_s", "s", (sp.experiments - sp.lookup - sp.simulate).Seconds())
	res.set("sweep.critical_path_s", "s", sp.longest.Seconds())
	res.set("sweep.worker_idle_s", "s", float64(sweepWorkers)*tp.wall-sp.experiments.Seconds())
	res.set("trace.overhead_pct", "%", 100*(tp.wall/quantile(walls, 0.5)-1))
	return runLadder(ctx, res)
}

// sweepWorkers is the catalog's worker count.
const sweepWorkers = 2

// catalogPass is what one sweep.RunAll pass measured.
type catalogPass struct {
	summary   *sweep.Summary
	wall, cpu float64
	hits      float64 // run cache hits and misses in this pass
	misses    float64
	counters  workCounters
	gcCycles  float64
	gcPauseMS float64
	allocMB   float64
	spans     *spanSums // traced passes only
}

// spanSums totals the program's own spans of one traced pass.
type spanSums struct {
	mu          sync.Mutex
	experiments time.Duration // Σ experiment:* spans
	longest     time.Duration // the longest experiment:* span
	lookup      time.Duration // Σ runcache.lookup spans
	simulate    time.Duration // Σ simulate spans
}

func (s *spanSums) add(sp *tracing.Span) {
	d := sp.Duration()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch name := sp.Name(); {
	case strings.HasPrefix(name, "experiment:"):
		s.experiments += d
		if d > s.longest {
			s.longest = d
		}
	case name == "runcache.lookup":
		s.lookup += d
	case name == "simulate":
		s.simulate += d
	}
}

// catalogRun is one timed pass over the catalog from a cold run cache.
// A traced pass hands RunAll a tracer through Options.Context, so the
// sweep, runcache and simulate spans the program already records are
// summed as they end.
func catalogRun(ctx context.Context, exps []sweep.Experiment, traced bool) (catalogPass, error) {
	p := catalogPass{spans: &spanSums{}}
	runcache.Default.Reset()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	opt := sweep.Options{Workers: sweepWorkers}
	var root *tracing.Span
	if traced {
		tr := tracing.New(1)
		tr.OnSpanEnd(p.spans.add)
		opt.Context, root = tr.StartTrace(context.Background(), "catalog", "catalog", tracing.TraceContext{})
	}
	rc0 := runcache.Default.Stats()
	cpu0 := selfCPU()
	t0 := time.Now()
	p.summary = sweep.RunAll(exps, opt)
	p.wall = time.Since(t0).Seconds()
	p.cpu = selfCPU() - cpu0
	root.End()
	runtime.ReadMemStats(&ms1)
	// The run cache's counters are monotonic across Reset.
	rc1 := runcache.Default.Stats()
	p.hits = float64(rc1.Hits - rc0.Hits)
	p.misses = float64(rc1.Misses - rc0.Misses)
	p.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	p.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	p.counters = catalogCounters(p.summary)
	return p, ctx.Err()
}

// checkCatalogPass compares one pass with the golden catalog (every
// drifted or lost point and every failed experiment is a failure) and its
// deterministic counters with the first pass.
func checkCatalogPass(res *result, g *golden, p catalogPass, first workCounters, i int) {
	for _, o := range p.summary.Failed() {
		res.attempted++
		res.fail("pass %d: experiment %s: %v", i, o.Experiment.ID, o.Err)
	}
	var buf bytes.Buffer
	if err := p.summary.WriteJSON(&buf); err != nil {
		res.attempted++
		res.fail("pass %d: rendering the summary: %v", i, err)
		return
	}
	rep, err := compare.CompareSweepJSON(g.raw, buf.Bytes())
	if err != nil {
		res.attempted++
		res.fail("pass %d: comparing with the golden catalog: %v", i, err)
		return
	}
	res.attempted += rep.PointsCompared + len(rep.MissingInB)
	for _, d := range rep.Drift {
		res.fail("pass %d: drift %s", i, d)
	}
	for _, m := range rep.MissingInB {
		res.fail("pass %d: lost point %s", i, m)
	}
	if p.counters != first {
		res.attempted++
		res.fail("pass %d: work counters %+v differ from the first pass %+v", i, p.counters, first)
	}
}

// workCounters are simulated work counts summed over every point with
// statistics. They depend only on the simulated machines, never on the
// host, so two runs of one commit report them identical.
type workCounters struct {
	points         uint64
	cycles         uint64
	instructions   uint64
	cacheHits      uint64
	cacheMisses    uint64
	prefetches     uint64
	demandFetches  uint64
	wordsDelivered uint64
	inputBusCycles uint64
	compulsory     uint64
	capacity       uint64
	conflict       uint64
}

func catalogCounters(s *sweep.Summary) workCounters {
	var c workCounters
	for _, o := range s.Outcomes {
		if o.Result == nil {
			continue
		}
		for _, ser := range o.Result.Series {
			for _, pt := range ser.Points {
				st := pt.Stats
				if !pt.Valid || st == nil {
					continue
				}
				c.points++
				c.cycles += st.Cycles
				c.instructions += st.CPU.Instructions
				c.cacheHits += st.Fetch.CacheHits
				c.cacheMisses += st.Fetch.CacheMisses
				c.prefetches += st.Fetch.Prefetches
				c.demandFetches += st.Fetch.LineFetches
				c.wordsDelivered += st.Mem.WordsDelivered
				c.inputBusCycles += st.Mem.InputBusCycles
				if st.Cache != nil {
					c.compulsory += st.Cache.Compulsory
					c.capacity += st.Cache.Capacity
					c.conflict += st.Cache.Conflict
				}
			}
		}
	}
	return c
}

// report records the counters shared by every workload.
func (c workCounters) report(res *result) {
	res.set("work.points", "count", float64(c.points))
	res.set("work.sim_cycles", "count", float64(c.cycles))
	res.set("cpu.instructions", "count", float64(c.instructions))
	res.set("fetch.cache_hits", "count", float64(c.cacheHits))
	res.set("fetch.cache_misses", "count", float64(c.cacheMisses))
	res.set("fetch.prefetches", "count", float64(c.prefetches))
	res.set("fetch.demand_fetches", "count", float64(c.demandFetches))
	res.set("mem.words_delivered", "count", float64(c.wordsDelivered))
	res.set("mem.input_bus_cycles", "count", float64(c.inputBusCycles))
	res.set("cache.compulsory", "count", float64(c.compulsory))
	res.set("cache.capacity", "count", float64(c.capacity))
	res.set("cache.conflict", "count", float64(c.conflict))
}

// selfCPU is this process's user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
