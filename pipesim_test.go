package pipesim_test

import (
	"math"
	"strings"
	"testing"

	"pipesim"
)

func TestDefaultConfigRunsQuickstart(t *testing.T) {
	prog, err := pipesim.Assemble(`
        li   r1, 5
        li   r2, 0
        setb b0, loop
loop:   add  r2, r2, r1
        addi r1, r1, -1
        pbr  ne, r1, b0, 2
        nop
        nop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipesim.NewSimulation(pipesim.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Reg(2) != 15 {
		t.Errorf("sum = %d, want 15", sim.Reg(2))
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Error("empty result")
	}
	if res.CPI() <= 0 {
		t.Error("CPI not positive")
	}
}

func TestTableIIConfig(t *testing.T) {
	cases := map[string][3]int{
		"8-8":   {8, 8, 8},
		"16-16": {16, 16, 16},
		"16-32": {32, 16, 32},
		"32-32": {32, 32, 32},
	}
	for name, want := range cases {
		cfg, err := pipesim.TableIIConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.LineBytes != want[0] || cfg.IQBytes != want[1] || cfg.IQBBytes != want[2] {
			t.Errorf("%s: got %d/%d/%d", name, cfg.LineBytes, cfg.IQBytes, cfg.IQBBytes)
		}
	}
	if _, err := pipesim.TableIIConfig("64-64"); err == nil {
		t.Error("unknown configuration accepted")
	}
}

func TestLivermoreProgramMetadata(t *testing.T) {
	prog, loops, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 14 {
		t.Fatalf("%d loops", len(loops))
	}
	wantBytes := []int{116, 204, 64, 80, 76, 72, 288, 732, 272, 260, 56, 56, 328, 224}
	for i, l := range loops {
		if l.InnerBytes != wantBytes[i] {
			t.Errorf("loop %d: %d bytes, want %d", l.Index, l.InnerBytes, wantBytes[i])
		}
	}
	if prog.Instructions() == 0 {
		t.Error("empty program")
	}
	if !strings.Contains(prog.Disassemble(), "PBR") {
		t.Error("disassembly missing PBR")
	}
}

func TestLivermoreBenchmarkInstructionCount(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipesim.Run(pipesim.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != pipesim.BenchmarkInstructions {
		t.Fatalf("instructions = %d, want %d", res.Instructions, pipesim.BenchmarkInstructions)
	}
}

func TestAllStrategiesRunBenchmark(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []pipesim.Strategy{pipesim.StrategyPIPE, pipesim.StrategyConventional, pipesim.StrategyTIB} {
		cfg := pipesim.DefaultConfig()
		cfg.Strategy = strat
		res, err := pipesim.Run(cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Instructions != pipesim.BenchmarkInstructions {
			t.Errorf("%s: %d instructions", strat, res.Instructions)
		}
	}
	bad := pipesim.DefaultConfig()
	bad.Strategy = "bogus"
	if _, err := pipesim.Run(bad, prog); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestLivermoreKernelAndArrayAddr(t *testing.T) {
	prog, err := pipesim.LivermoreKernel(12)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipesim.NewSimulation(pipesim.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	addr, err := pipesim.LivermoreArrayAddr(prog, 12, "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	// x[0] = y[1]-y[0] with y = 0.25+0.001*(i%97).
	want := float32(0.25+0.001*1) - float32(0.25)
	if got := math.Float32frombits(sim.ReadWord(addr)); got != want {
		t.Errorf("LL12 x[0] = %v, want %v", got, want)
	}
	if _, err := pipesim.LivermoreKernel(99); err == nil {
		t.Error("kernel 99 accepted")
	}
	if _, err := pipesim.LivermoreArrayAddr(prog, 12, "nosuch", 0); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestResultTrafficBreakdown(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	cfg.MemAccessTime = 6
	cfg.BusWidthBytes = 8
	res, err := pipesim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemAccepted["data-load"] == 0 || res.MemAccepted["data-store"] == 0 {
		t.Errorf("no data traffic recorded: %v", res.MemAccepted)
	}
	if res.FPUOps == 0 {
		t.Error("no FPU operations recorded")
	}
	if res.Loads == 0 || res.Stores == 0 || res.Branches == 0 {
		t.Errorf("pipeline counters empty: %+v", res)
	}
	if res.StallLDQEmpty == 0 {
		t.Error("no load-data stalls at a 6-cycle access time")
	}
}

func TestNativeFormatPublicAPI(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	cfg.MemAccessTime = 6
	cfg.BusWidthBytes = 8
	cfg.CacheBytes = 64
	fixed, err := pipesim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NativeFormat = true
	native, err := pipesim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if native.Instructions != fixed.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", native.Instructions, fixed.Instructions)
	}
	if native.Cycles >= fixed.Cycles {
		t.Errorf("native format (%d cycles) not faster than fixed (%d) at a small cache",
			native.Cycles, fixed.Cycles)
	}
	// TIB rejects the native format.
	cfg.Strategy = pipesim.StrategyTIB
	if _, err := pipesim.Run(cfg, prog); err == nil {
		t.Error("TIB accepted the native format")
	}
}

func TestDeepPrefetchAndDCachePublicAPI(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	cfg.MemAccessTime = 6
	cfg.BusWidthBytes = 8
	cfg.CacheBytes = 32
	cfg.IQBBytes = 32
	cfg.DeepPrefetch = true
	deep, err := pipesim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Instructions != pipesim.BenchmarkInstructions {
		t.Errorf("deep prefetch changed the instruction count: %d", deep.Instructions)
	}
	cfg.DeepPrefetch = false
	cfg.IQBBytes = 16
	cfg.DCacheBytes = 256
	dc, err := pipesim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if dc.DCacheHits == 0 {
		t.Error("data cache recorded no hits on the benchmark")
	}
}

func TestCompileKernelPublicAPI(t *testing.T) {
	compiled, err := pipesim.CompileKernel(`
const a = 2.0
array x[30] = fill(3.0)
array y[30]
loop 20 {
  y[k] = a * x[k]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipesim.NewSimulation(pipesim.DefaultConfig(), compiled.Program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	addr, ok := compiled.ArrayAddr("y", 10)
	if !ok {
		t.Fatal("ArrayAddr failed")
	}
	if got := math.Float32frombits(sim.ReadWord(addr)); got != 6.0 {
		t.Errorf("y[10] = %v, want 6", got)
	}
	if _, err := pipesim.CompileKernel("syntax error here"); err == nil {
		t.Error("bad source compiled")
	}
}

func TestHeadlineClaimSmallCacheSlowMemory(t *testing.T) {
	// The paper's central comparison at the library level: at T=6 with a
	// small cache, every Table II PIPE configuration must beat the
	// conventional cache.
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	base := pipesim.DefaultConfig()
	base.MemAccessTime = 6
	base.BusWidthBytes = 8
	base.CacheBytes = 32

	conv := base
	conv.Strategy = pipesim.StrategyConventional
	conv.LineBytes = 16
	convRes, err := pipesim.Run(conv, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"8-8", "16-16", "16-32", "32-32"} {
		cfg, err := pipesim.TableIIConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MemAccessTime = 6
		cfg.BusWidthBytes = 8
		cfg.CacheBytes = 32
		res, err := pipesim.Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles >= convRes.Cycles {
			t.Errorf("PIPE %s (%d cycles) not faster than conventional (%d) at T=6, 32B cache",
				name, res.Cycles, convRes.Cycles)
		}
	}
}

// TestTraceToLimit checks the retirement trace: one line per retired
// instruction (cycle, PC, disassembly), cut at the limit, and a traced run
// produces the same result as an untraced one.
func TestTraceToLimit(t *testing.T) {
	prog, err := pipesim.Assemble(`
        li   r1, 4
        li   r2, 0
        setb b0, loop
loop:   add  r2, r2, r1
        addi r1, r1, -1
        pbr  ne, r1, b0, 2
        nop
        nop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	run := func(limit uint64, w *strings.Builder) *pipesim.Result {
		sim, err := pipesim.NewSimulation(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			sim.TraceTo(w, limit)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0, nil)
	var all, cut strings.Builder
	traced := run(0, &all)
	run(2, &cut)
	if traced.Cycles != plain.Cycles || traced.Instructions != plain.Instructions {
		t.Errorf("tracing changed the run: %d/%d cycles, %d/%d instructions",
			traced.Cycles, plain.Cycles, traced.Instructions, plain.Instructions)
	}
	if n := uint64(strings.Count(all.String(), "\n")); n != plain.Instructions {
		t.Errorf("unlimited trace has %d lines, want one per retirement (%d)", n, plain.Instructions)
	}
	lines := strings.Split(strings.TrimSuffix(cut.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("limit 2 wrote %d lines:\n%s", len(lines), cut.String())
	}
	if !strings.Contains(lines[0], "00000  LI r1, 4") || !strings.Contains(lines[1], "LI r2, 0") {
		t.Errorf("trace lines = %q", lines)
	}
}
