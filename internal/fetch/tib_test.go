package fetch

import (
	"testing"

	"pipesim/internal/isa"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
)

func newTIBEngine(t *testing.T, img *program.Image, mcfg mem.Config, entries, lineBytes int) (*TIB, *mem.System) {
	t.Helper()
	sys, err := mem.New(mcfg, img, nil, obs.NewSink(-1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewTIB(TIBConfig{Entries: entries, LineBytes: lineBytes}, img, sys, img.Entry, obs.NewSink(-1))
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys
}

func TestTIBConfigValidate(t *testing.T) {
	bad := []TIBConfig{
		{Entries: 0, LineBytes: 16},
		{Entries: 4, LineBytes: 0},
		{Entries: 4, LineBytes: 6},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
	if err := (TIBConfig{Entries: 1, LineBytes: 4}).Validate(); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestTIBSequentialSupply(t *testing.T) {
	img := straightLine(t, 30)
	eng, sys := newTIBEngine(t, img, memCfg(1, 8, false), 4, 16)
	h := newHarness(t, img, eng, sys, neverTaken)
	checkSequentialTrace(t, h.run(2000), 30)
}

func TestTIBLoopTraceAndHitsOnSecondIteration(t *testing.T) {
	img, loop, _ := loopProgram(t, 2, 12, 4)
	eng, sys := newTIBEngine(t, img, memCfg(6, 8, false), 4, 16)
	iter := 0
	h := newHarness(t, img, eng, sys, func(pc uint32, in isa.Inst) (bool, uint32) {
		iter++
		return iter < 5, loop
	})
	trace := h.run(20000)
	want := 2 + 5*12 + 1
	if len(trace) != want {
		t.Fatalf("trace length %d, want %d", len(trace), want)
	}
	st := eng.Stats()
	// First taken branch misses the TIB (allocation), the remaining three
	// hit the cached target line.
	if st.CacheMisses == 0 {
		t.Error("no TIB allocation recorded")
	}
	if st.CacheHits < 3 {
		t.Errorf("TIB hits = %d, want >= 3 (target cached after first iteration)", st.CacheHits)
	}
}

func TestTIBCapacityEviction(t *testing.T) {
	// Two alternating targets with a 1-entry TIB: every redirect misses
	// after the other target evicted it.
	b := program.NewBuilder()
	b.Nop() // 0
	b.Label("top")
	b.PBR(isa.CondAL, 0, 0, 1) // always taken, alternating target
	b.Nop()
	b.Nop()
	b.Label("a") // target A
	b.PBR(isa.CondAL, 0, 0, 1)
	b.Nop()
	b.Nop()
	b.Label("bb") // target B
	b.PBR(isa.CondNE, 1, 0, 1)
	b.Nop()
	b.Halt()
	img, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	aAddr, _ := img.Lookup("a")
	bAddr, _ := img.Lookup("bb")
	// Script: top -> a -> bb (then halt).
	targets := []uint32{aAddr, bAddr, 0}
	i := 0
	outcome := func(pc uint32, in isa.Inst) (bool, uint32) {
		tgt := targets[i]
		i++
		return tgt != 0, tgt
	}
	eng, sys := newTIBEngine(t, img, memCfg(1, 8, false), 1, 8)
	h := newHarness(t, img, eng, sys, outcome)
	h.run(4000)
	if eng.Stats().CacheMisses < 2 {
		t.Errorf("misses = %d; distinct targets must each allocate", eng.Stats().CacheMisses)
	}
}

func TestTIBGeneratesHeavyTraffic(t *testing.T) {
	// The paper warns a TIB "implies large amounts of off-chip accessing":
	// compare instruction-side requests against a PIPE cache on the same
	// looping workload.
	img, loop, _ := loopProgram(t, 2, 12, 4)
	outcome := func() func(pc uint32, in isa.Inst) (bool, uint32) {
		iter := 0
		return func(pc uint32, in isa.Inst) (bool, uint32) {
			iter++
			return iter < 20, loop
		}
	}
	tibEng, tibSys := newTIBEngine(t, img, memCfg(1, 8, false), 4, 16)
	newHarness(t, img, tibEng, tibSys, outcome()).run(20000)

	pipeEng, pipeSys := newPipeEngine(t, img, memCfg(1, 8, false),
		PipeConfig{LineBytes: 16, IQBytes: 16, IQBBytes: 16, TruePrefetch: true}, 128)
	newHarness(t, img, pipeEng, pipeSys, outcome()).run(20000)

	tibReqs := tibEng.Stats().LineFetches + tibEng.Stats().Prefetches
	pipeReqs := pipeEng.Stats().LineFetches + pipeEng.Stats().Prefetches
	if tibReqs <= 2*pipeReqs {
		t.Errorf("TIB issued %d requests vs PIPE %d; expected far more off-chip traffic", tibReqs, pipeReqs)
	}
}

func TestTIBHaltStopsFetching(t *testing.T) {
	img := straightLine(t, 4)
	eng, sys := newTIBEngine(t, img, memCfg(1, 8, false), 2, 8)
	h := newHarness(t, img, eng, sys, neverTaken)
	h.run(1000)
	before := eng.Stats().LineFetches + eng.Stats().Prefetches
	for c := h.cycle; c < h.cycle+50; c++ {
		sys.BeginCycle(c)
		eng.Tick()
		sys.EndCycle()
	}
	after := eng.Stats().LineFetches + eng.Stats().Prefetches
	if after != before {
		t.Errorf("TIB kept fetching after HALT: %d -> %d", before, after)
	}
}
