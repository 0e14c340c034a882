package core_test

import (
	"runtime"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/kernels"
	"pipesim/internal/mem"
	"pipesim/internal/synth"
)

// runMallocs counts the heap allocations of Run alone (construction
// excluded) for one configuration over the synthetic loop spec.
func runMallocs(t *testing.T, cfg core.Config, spec synth.LoopSpec) uint64 {
	t.Helper()
	img, err := synth.Loop(spec)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRunSteadyStateAllocFree: once warm, the tick loop allocates
// nothing. A loop run ten times longer — ten times the branch windows,
// loads and stores — may allocate only a small constant more than the
// short one, for every fetch strategy.
func TestRunSteadyStateAllocFree(t *testing.T) {
	const slack = 16
	for _, f := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		cfg := core.DefaultConfig()
		cfg.Fetch = f
		cfg.TIBEntries, cfg.TIBLineBytes = 4, 16
		cfg.Mem.AccessTime, cfg.Mem.BusWidthBytes = 6, 8
		spec := synth.LoopSpec{BodyInstr: 16, Loads: 2, Stores: 1, DelaySlots: 2}
		spec.Iterations = 2000
		short := runMallocs(t, cfg, spec)
		spec.Iterations = 20000
		long := runMallocs(t, cfg, spec)
		if long > short+slack {
			t.Errorf("%v: Run allocated %d times for 20000 iterations vs %d for 2000: the tick loop allocates per iteration",
				f, long, short)
		}
	}
}

// TestSingleRunAllocBound is the deterministic footprint guard for the
// BenchmarkSingleRun configuration (PIPE 16-16, 128-byte cache, T=6,
// 8-byte bus, Livermore): building and running one simulator costs a
// fixed, small number of allocations.
func TestSingleRunAllocBound(t *testing.T) {
	img, _, err := kernels.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Fetch:        core.FetchPIPE,
		CacheBytes:   128,
		LineBytes:    16,
		IQBytes:      16,
		IQBBytes:     16,
		TruePrefetch: true,
		Mem:          mem.Config{AccessTime: 6, BusWidthBytes: 8, InstrPriority: true, FPULatency: 4},
		CPU:          core.DefaultConfig().CPU,
	}
	allocs := testing.AllocsPerRun(2, func() {
		sim, err := core.New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("core.New+Run allocated %.0f times, want <= 200", allocs)
	}
}
