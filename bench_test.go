// Benchmarks regenerating every table and figure of the paper's evaluation
// section (plus the ablations and extensions indexed in DESIGN.md). Each
// benchmark runs the corresponding experiment end-to-end on the 150,575-
// instruction Livermore workload and reports the simulated cycle counts as
// custom metrics, so `go test -bench=. -benchmem` reproduces the paper's
// series alongside the harness cost.
package pipesim_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"pipesim"
	"pipesim/internal/core"
	"pipesim/internal/mem"
	"pipesim/internal/runcache"
	"pipesim/internal/sweep"
	"pipesim/internal/tracing"
)

// uncached disables the process-wide run cache for one benchmark so it
// measures real simulation work. With memoization on, every iteration past
// the first would return a stored result and the timing would be
// meaningless as a simulator-speed baseline.
func uncached(b *testing.B) {
	b.Helper()
	runcache.Default.SetEnabled(false)
	b.Cleanup(func() { runcache.Default.SetEnabled(true) })
}

// reportFigure runs a figure experiment b.N times and reports the simulated
// cycles of every (series, cache-size) point as metrics named
// "<series>_<size>B_cycles".
func reportFigure(b *testing.B, id string) {
	b.Helper()
	uncached(b)
	exp, ok := sweep.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var res *sweep.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, s := range res.Series {
		for _, p := range s.Points {
			if !p.Valid {
				continue
			}
			b.ReportMetric(float64(p.Cycles), fmt.Sprintf("%s_%dB_cycles", sanitize(s.Label), p.CacheBytes))
		}
	}
}

// BenchmarkTableI regenerates Table I (inner loop sizes of the generated
// Livermore workload) and reports each loop's size in bytes.
func BenchmarkTableI(b *testing.B) {
	exp, _ := sweep.Lookup("table1")
	var res *sweep.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res.Series[0].Points {
		b.ReportMetric(float64(p.Cycles), fmt.Sprintf("loop%d_bytes", p.CacheBytes))
	}
}

// BenchmarkFigure4a: cycles vs cache size, memory access time 1,
// non-pipelined, 4-byte input bus (conventional + four PIPE configs).
func BenchmarkFigure4a(b *testing.B) { reportFigure(b, "fig4a") }

// BenchmarkFigure4b: access time 1, non-pipelined, 8-byte bus.
func BenchmarkFigure4b(b *testing.B) { reportFigure(b, "fig4b") }

// BenchmarkFigure5a: access time 6, non-pipelined, 4-byte bus.
func BenchmarkFigure5a(b *testing.B) { reportFigure(b, "fig5a") }

// BenchmarkFigure5b: access time 6, non-pipelined, 8-byte bus.
func BenchmarkFigure5b(b *testing.B) { reportFigure(b, "fig5b") }

// BenchmarkFigure6a: identical machine to Figure 5b (the paper re-plots it
// at a different scale).
func BenchmarkFigure6a(b *testing.B) { reportFigure(b, "fig6a") }

// BenchmarkFigure6b: access time 6, 8-byte bus, pipelined memory.
func BenchmarkFigure6b(b *testing.B) { reportFigure(b, "fig6b") }

// BenchmarkAccessTime2 and 3 back the paper's "memory access times of 2 and
// 3 clock cycles showed similar results" claim.
func BenchmarkAccessTime2(b *testing.B) { reportFigure(b, "access2") }

// BenchmarkAccessTime3: see BenchmarkAccessTime2.
func BenchmarkAccessTime3(b *testing.B) { reportFigure(b, "access3") }

// BenchmarkAblationTruePrefetch quantifies the paper's observation that the
// original chip's guaranteed-execution fetch policy costs performance
// relative to true off-chip prefetch.
func BenchmarkAblationTruePrefetch(b *testing.B) { reportFigure(b, "noprefetch") }

// BenchmarkAblationPriority compares instruction- versus data-priority
// arbitration at the memory interface.
func BenchmarkAblationPriority(b *testing.B) { reportFigure(b, "priority") }

// BenchmarkExtensionTIB evaluates the Target Instruction Buffer front end
// of paper §2.1.
func BenchmarkExtensionTIB(b *testing.B) { reportFigure(b, "tib") }

// BenchmarkAnalysisKnee isolates the knee mechanism: cycles per iteration
// of a synthetic loop of growing size against a fixed 128-byte cache.
func BenchmarkAnalysisKnee(b *testing.B) { reportFigure(b, "knee") }

// BenchmarkAnalysisPerLoop attributes the benchmark's cycles to each of the
// 14 Livermore loops per fetch strategy.
func BenchmarkAnalysisPerLoop(b *testing.B) { reportFigure(b, "perloop") }

// BenchmarkParamIQSize sweeps the paper's simulation parameters (7) and
// (8): the IQ and IQB sizes at a fixed line size.
func BenchmarkParamIQSize(b *testing.B) { reportFigure(b, "iqsize") }

// BenchmarkParamSlots sweeps the PBR delay-slot count (paper §3.1.3).
func BenchmarkParamSlots(b *testing.B) { reportFigure(b, "slots") }

// BenchmarkExtensionDCache compares spending on-chip bytes on a bigger
// instruction cache versus an instruction/data split (the paper's
// concluding suggestion for mature-technology densities).
func BenchmarkExtensionDCache(b *testing.B) { reportFigure(b, "dcache") }

// BenchmarkExtensionFormatSim simulates paper parameter (1) dynamically:
// the benchmark in the fixed versus the native 16/32-bit encoding.
func BenchmarkExtensionFormatSim(b *testing.B) { reportFigure(b, "formatsim") }

// BenchmarkExtensionFormat reports each inner loop's byte size in the
// native 16/32-bit parcel format (paper simulation parameter 1), as
// "loopN_bytes" metrics next to the fixed-format Table I sizes.
func BenchmarkExtensionFormat(b *testing.B) {
	exp, _ := sweep.Lookup("format")
	var res *sweep.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			b.ReportMetric(float64(p.Cycles), fmt.Sprintf("loop%d_%s", p.CacheBytes, sanitize(s.Label)))
		}
	}
}

func sanitize(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkSingleRun measures the simulator's own speed on one
// representative configuration (PIPE 16-16, 128-byte cache, T=6, 8-byte
// bus), reporting the simulated cycle count.
func BenchmarkSingleRun(b *testing.B) {
	uncached(b)
	v := sweep.TableII[1]
	mcfg := mem.Config{AccessTime: 6, BusWidthBytes: 8, InstrPriority: true, FPULatency: 4}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		st, err := sweep.RunPipe(context.Background(), v, 128, mcfg, true)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkSkipAhead is the skip-vs-step A/B ladder behind DESIGN §16's
// speedup table: the benchmark machine (16-16, T=6, 8-byte bus) at the
// paper's cache sizes around the knee, with the event-driven skip-ahead on
// (the default) and off. The ratio between the step and skip variants at
// each size is the fold win; the absolute skip numbers track
// BenchmarkSingleRun.
func BenchmarkSkipAhead(b *testing.B) {
	uncached(b)
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 128, 256} {
		for _, mode := range []struct {
			name   string
			noSkip bool
		}{{"skip", false}, {"step", true}} {
			b.Run(fmt.Sprintf("%dB/%s", size, mode.name), func(b *testing.B) {
				cfg := pipesim.DefaultConfig()
				cfg.CacheBytes = size
				cfg.MemAccessTime = 6
				cfg.BusWidthBytes = 8
				cfg.FPULatency = 4
				cfg.NoSkipAhead = mode.noSkip
				var cycles uint64
				for i := 0; i < b.N; i++ {
					res, err := pipesim.Run(cfg, prog)
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
				}
				b.ReportMetric(float64(cycles), "sim_cycles")
			})
		}
	}
}

// nullProbe receives the full event stream and discards it — the cheapest
// possible attached probe, isolating the event-emission cost itself.
type nullProbe struct{ n uint64 }

func (p *nullProbe) Event(e pipesim.ProbeEvent) { p.n++ }

// BenchmarkProbeOverhead compares a full Livermore-benchmark run with no
// probe attached (only nil checks at the event sites) against the same run
// feeding a do-nothing probe and a timeline collector. The no-probe case is
// the observability layer's headline cost and must stay within noise of the
// pre-instrumentation simulator.
func BenchmarkProbeOverhead(b *testing.B) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	run := func(b *testing.B, observe func(s *pipesim.Simulation)) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			sim, err := pipesim.NewSimulation(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			if observe != nil {
				observe(sim)
			}
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
	b.Run("no-probe", func(b *testing.B) { run(b, nil) })
	b.Run("null-probe", func(b *testing.B) {
		run(b, func(s *pipesim.Simulation) { s.Observe(&nullProbe{}) })
	})
	b.Run("perloop", func(b *testing.B) {
		run(b, func(s *pipesim.Simulation) {
			if err := s.CollectPerLoop(); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("timeline", func(b *testing.B) {
		run(b, func(s *pipesim.Simulation) { s.Observe(pipesim.NewTimeline()) })
	})
}

// BenchmarkFlightRecorderOverhead prices the always-on post-mortem ring:
// the same Livermore run with recording disabled, at the default 256-event
// depth, and at a deep 4096-event depth. The recorder skips the per-cycle
// event kinds and writes a preallocated ring through an inlined call, so
// "default" must stay within the <5% BenchmarkSingleRun acceptance bound —
// that is what justifies leaving it on for every run.
func BenchmarkFlightRecorderOverhead(b *testing.B) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, depth int) {
		cfg := pipesim.DefaultConfig()
		cfg.FlightRecorderDepth = depth
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res, err := pipesim.Run(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
	b.Run("off", func(b *testing.B) { run(b, -1) })
	b.Run("default", func(b *testing.B) { run(b, 0) })
	b.Run("deep-4096", func(b *testing.B) { run(b, 4096) })
}

// BenchmarkMissClassOverhead prices the cache-introspection layer. "off"
// is the default configuration — one nil check at each engine accounting
// site — and rides BenchmarkSingleRun's CI gate, which holds it within 2%
// of the pre-introspection baseline. "on" feeds every reference through
// the two shadow models (infinite seen-set plus equal-size FA-LRU); that
// cost is only paid when Config.CacheStats is requested. "on-64B" is the
// worst case for the shadows: the thrashing small cache misses constantly,
// so the classification switch and hot-PC map run at peak rate.
func BenchmarkMissClassOverhead(b *testing.B) {
	uncached(b)
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cacheBytes int, on bool) {
		cfg := pipesim.DefaultConfig()
		cfg.CacheBytes = cacheBytes
		cfg.CacheStats = on
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res, err := pipesim.Run(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
	b.Run("off", func(b *testing.B) { run(b, 128, false) })
	b.Run("on", func(b *testing.B) { run(b, 128, true) })
	b.Run("on-64B", func(b *testing.B) { run(b, 64, true) })
}

// BenchmarkRunHookOverhead guards the per-run metrics hook the same way
// BenchmarkProbeOverhead guards the probe layer: a full benchmark run with
// no hook installed (one atomic load per Run) against the same run firing
// a counting hook. The unset case is the library's default and must stay
// within noise of a build without the hook plumbing.
func BenchmarkRunHookOverhead(b *testing.B) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	run := func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res, err := pipesim.Run(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
	b.Run("no-hook", func(b *testing.B) {
		pipesim.SetRunHook(nil)
		run(b)
	})
	b.Run("counting-hook", func(b *testing.B) {
		var runs uint64
		pipesim.SetRunHook(func(ri pipesim.RunInfo) { runs++ })
		defer pipesim.SetRunHook(nil)
		run(b)
	})
}

// BenchmarkSweepE2E runs a small multi-experiment sweep end-to-end through
// the fault-isolated parallel runner and the JSON emitter — the exact path
// cmd/pipesimd's /v1/sweep serves — so baselines track the serving path,
// not just raw simulation speed.
func BenchmarkSweepE2E(b *testing.B) {
	uncached(b)
	exps := make([]sweep.Experiment, 0, 3)
	for _, id := range []string{"table1", "knee", "slots"} {
		e, ok := sweep.Lookup(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	for i := 0; i < b.N; i++ {
		sum := sweep.RunAll(exps, sweep.Options{})
		if err := sum.Err(); err != nil {
			b.Fatal(err)
		}
		if err := sum.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepE2EWarm is BenchmarkSweepE2E with the run cache on and
// already populated: the steady state of a long-lived pipesimd serving
// repeated sweep requests. Only the runner, renderer and cache lookups are
// left to measure.
func BenchmarkSweepE2EWarm(b *testing.B) {
	exps := make([]sweep.Experiment, 0, 3)
	for _, id := range []string{"table1", "knee", "slots"} {
		e, ok := sweep.Lookup(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	if err := sweep.RunAll(exps, sweep.Options{}).Err(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := sweep.RunAll(exps, sweep.Options{})
		if err := sum.Err(); err != nil {
			b.Fatal(err)
		}
		if err := sum.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCacheHit measures a memoized run: the key hash, the LRU
// lookup and the copy-out — everything but the simulation. The gap to
// BenchmarkSingleRun (tens of milliseconds) is what the cache saves on
// every repeated configuration.
func BenchmarkRunCacheHit(b *testing.B) {
	img, err := sweep.BenchmarkImage()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cache := runcache.New(16)
	if _, err := cache.Run(cfg, img); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Run(cfg, img); err != nil {
			b.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Hits < uint64(b.N) {
		b.Fatalf("expected every iteration to hit, got %+v", s)
	}
}

// BenchmarkRunArchivedHit measures the library side of a warm pipesimd
// /v1/run without asm or kernel: each op fetches the benchmark program and
// serves the default configuration through the run cache, exactly as the
// daemon's handler does, minus HTTP and JSON. BenchmarkRunCacheHit times
// the cache alone; the gap between the two is the per-request program
// cost, which the process-wide image keeps near zero.
func BenchmarkRunArchivedHit(b *testing.B) {
	ctx := context.Background()
	cfg := pipesim.DefaultConfig()
	hit := func() pipesim.RunSource {
		prog, _, err := pipesim.LivermoreProgram()
		if err != nil {
			b.Fatal(err)
		}
		_, src, err := pipesim.RunArchived(ctx, cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	hit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if src := hit(); src != pipesim.RunFromMemory {
			b.Fatalf("op %d served from %q, want %q", i, src, pipesim.RunFromMemory)
		}
	}
}

// BenchmarkSpanOverhead prices the tracing layer at its two states. The
// "untraced" case is every library call path when no daemon is attached:
// StartSpan finds no span in the context and returns the nil no-op span —
// one context value lookup, no allocation. The "traced" case is a pipesimd
// request: a real child span started, annotated and ended. Neither runs
// per simulated cycle; spans bracket whole stages, so even the traced cost
// is amortized over millions of cycles.
func BenchmarkSpanOverhead(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, span := tracing.StartSpan(ctx, "stage")
			span.End()
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := tracing.New(4)
		ctx, root := tr.StartTrace(context.Background(), "bench", "bench", tracing.TraceContext{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, span := tracing.StartSpan(ctx, "stage")
			span.SetAttr("outcome", "hit")
			span.End()
		}
		b.StopTimer()
		root.End()
	})
}
