// Package pipesim is a cycle-accurate simulator of the PIPE single-chip
// processor and its instruction-fetch strategies, reproducing Farrens &
// Pleszkun, "Improving Performance of Small On-Chip Instruction Caches"
// (ISCA 1989).
//
// The library models the complete system of the paper's Figure 3: a
// five-stage decoupled processor with architectural load/store queues, a
// small on-chip instruction cache, separate input and output busses to a
// large external cache (100% hit rate), and a memory-mapped external
// floating point unit. Three instruction-supply strategies are provided:
//
//   - StrategyPIPE — the paper's contribution: instruction cache +
//     Instruction Queue (IQ) + Instruction Queue Buffer (IQB) with
//     prepare-to-branch lookahead and off-chip prefetch;
//   - StrategyConventional — Hill's always-prefetch sub-blocked cache, the
//     strongest conventional baseline in the paper;
//   - StrategyTIB — a Target Instruction Buffer front end (paper §2.1).
//
// Quick start:
//
//	prog, _, err := pipesim.LivermoreProgram()
//	if err != nil { ... }
//	cfg := pipesim.DefaultConfig()
//	res, err := pipesim.Run(cfg, prog)
//	fmt.Println(res.Cycles, res.CPI())
//
// The workload is the paper's benchmark: the first 14 Lawrence Livermore
// Loops, calibrated so each inner loop matches the paper's Table I byte
// sizes exactly and one run executes exactly 150,575 instructions. Custom
// workloads can be written in PIPE assembly (Assemble) or in the
// kernel-description language (CompileKernel).
//
// Every knob of the paper's simulation study is a Config field: cache and
// line size, the IQ/IQB sizes of Table II, memory access time, bus width,
// memory pipelining, arbitration priority, the off-chip prefetch policy,
// and the instruction format (fixed 32-bit or the chip's native 16/32-bit
// parcels). Beyond-paper extensions — an on-chip data cache, deeper IQB
// lookahead, and the architecture's single-level interrupt — are off by
// default.
package pipesim

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"pipesim/internal/asm"
	"pipesim/internal/core"
	"pipesim/internal/cpu"
	"pipesim/internal/kernels"
	"pipesim/internal/mem"
	"pipesim/internal/minic"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/runcache"
	"pipesim/internal/runstore"
	"pipesim/internal/stats"
)

// Strategy names an instruction-fetch strategy.
type Strategy string

// Available strategies.
const (
	StrategyPIPE         Strategy = "pipe"
	StrategyConventional Strategy = "conventional"
	StrategyTIB          Strategy = "tib"
)

// Config selects one simulated machine. The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	// Strategy picks the instruction-fetch front end.
	Strategy Strategy

	// CacheBytes and LineBytes shape the on-chip instruction cache. For
	// the PIPE strategy LineBytes is also the off-chip fetch unit; for
	// the conventional strategy it is the tag granularity (fills are
	// per-instruction sub-blocks).
	CacheBytes int
	LineBytes  int

	// IQBytes and IQBBytes size the PIPE Instruction Queue and
	// Instruction Queue Buffer (paper Table II).
	IQBytes  int
	IQBBytes int

	// TruePrefetch permits the PIPE engine to fetch lines off-chip before
	// they are guaranteed to contain an executed instruction. All results
	// presented in the paper enable it; disabling reproduces the original
	// PIPE chip policy.
	TruePrefetch bool

	// DeepPrefetch (beyond-paper extension) refills the IQB whenever a
	// full line of space is free instead of only when empty, so an IQB
	// larger than one line provides real lookahead.
	DeepPrefetch bool

	// NativeFormat runs the workload in the PIPE chip's native 16/32-bit
	// two-parcel instruction encoding (paper simulation parameter 1)
	// instead of the fixed 32-bit format the presented results use. Code
	// is ~40% denser, so a given cache holds more of each loop. Not
	// supported with StrategyTIB.
	NativeFormat bool

	// TIBEntries and TIBLineBytes size the Target Instruction Buffer.
	TIBEntries   int
	TIBLineBytes int

	// MemAccessTime is the external memory access time in cycles (the
	// paper sweeps 1, 2, 3 and 6).
	MemAccessTime int
	// BusWidthBytes is the input (return) bus width (4 or 8 in the
	// paper).
	BusWidthBytes int
	// PipelinedMemory lets the memory accept a new request every cycle.
	PipelinedMemory bool
	// InstrPriority gives instruction fetches priority over data at the
	// memory interface (selected for all presented results).
	InstrPriority bool
	// FPULatency is the external floating-point operation time (the
	// paper holds it at 4).
	FPULatency int

	// Queue depths of the architectural data queues.
	LAQDepth, LDQDepth, SAQDepth, SDQDepth int

	// DCacheBytes enables a small on-chip data cache (0 = none; the
	// paper's machine has none — its conclusion proposes spending future
	// density on exactly this). Write-through, word-allocating, one-cycle
	// hits.
	DCacheBytes     int
	DCacheLineBytes int

	// InterruptAt raises the PIPE architecture's single-level interrupt
	// at the given cycle (0 = never): at the next clean instruction
	// boundary the CPU saves the resume address in B7, switches to the
	// background register bank and redirects fetch to InterruptVector.
	// The handler must not touch R7 or the data queues and returns with
	// `bank` followed by `pbr al, r0, b7, 0`.
	InterruptAt     uint64
	InterruptVector uint32

	// MaxCycles aborts runaway simulations; zero selects a generous
	// default.
	MaxCycles uint64

	// WatchdogCycles is the forward-progress watchdog window: a run that
	// retires no instruction for this many consecutive cycles is declared
	// deadlocked and returns a *DeadlockError diagnosing the stuck
	// machine state — long before MaxCycles would fire. Zero selects a
	// default (one million cycles) that no legitimate stall approaches.
	WatchdogCycles uint64

	// FlightRecorderDepth sizes the always-on flight recorder: a bounded
	// ring of recent probe events (cache activity, fetches, prefetches,
	// flushes, bus transfers, memory accepts, retirements) that every run
	// keeps for post-mortem diagnosis. On a machine check or deadlock the
	// ring's tail is snapshotted into the error (MachineCheckError /
	// DeadlockError .Recent, rendered by Detail), and the errors' retire
	// tail (.Trace) is read from it, so with recording disabled errors
	// carry no retire tail; after any run it is readable via
	// Simulation.RecentEvents. Zero selects the default depth
	// (256 events); a negative value disables recording; Validate rejects
	// depths above MaxFlightRecorderDepth. The recorder is
	// observational only — it never changes simulation results — and its
	// always-on cost is ~3% of an unobserved run (see
	// BenchmarkFlightRecorderOverhead).
	FlightRecorderDepth int

	// CacheStats enables the cache-introspection layer: every
	// instruction-cache miss is classified as compulsory, capacity or
	// conflict (the standard 3C method, via an infinite shadow cache and an
	// equal-capacity fully-associative LRU shadow), per-set
	// access/miss/eviction heatmaps with dead-on-eviction tracking are
	// collected, and the hottest miss PCs are tabulated. The results land
	// in Result.CacheStats; the per-class counts sum exactly to
	// Result.CacheMisses. Introspection is purely observational — cycle
	// counts are bit-identical with it on or off — and off by default (the
	// off cost is one nil check per fetch reference, see
	// BenchmarkMissClassOverhead). Ignored with StrategyTIB, which has no
	// cache array.
	CacheStats bool

	// CacheTopPCs bounds the hot miss-PC table when CacheStats is on:
	// zero selects the default (10), negative keeps every missing PC.
	// Must be left zero when CacheStats is off.
	CacheTopPCs int

	// NoSkipAhead disables the event-driven cycle skip-ahead and steps
	// every cycle individually. Skip-ahead elides only cycles proven to
	// be pure counter arithmetic, so results are bit-identical either
	// way (the differential suite asserts this across the full kernel
	// catalog); the switch exists for A/B timing measurements and as a
	// belt-and-braces escape hatch. Attaching a probe (Run*WithProbe)
	// disables skip-ahead automatically, with or without this flag.
	NoSkipAhead bool
}

// DefaultConfig returns the paper's baseline presentation point: the PIPE
// 16-16 configuration, 128-byte cache, true prefetch, instruction priority,
// 1-cycle non-pipelined memory with a 4-byte bus, 4-cycle FPU.
func DefaultConfig() Config {
	return Config{
		Strategy:      StrategyPIPE,
		CacheBytes:    128,
		LineBytes:     16,
		IQBytes:       16,
		IQBBytes:      16,
		TruePrefetch:  true,
		TIBEntries:    4,
		TIBLineBytes:  16,
		MemAccessTime: 1,
		BusWidthBytes: 4,
		InstrPriority: true,
		FPULatency:    4,
		LAQDepth:      8,
		LDQDepth:      8,
		SAQDepth:      8,
		SDQDepth:      8,
	}
}

// TableIIConfig returns DefaultConfig with the named Table II IQ/IQB
// arrangement: "8-8", "16-16", "16-32" or "32-32".
func TableIIConfig(name string) (Config, error) {
	cfg := DefaultConfig()
	switch name {
	case "8-8":
		cfg.LineBytes, cfg.IQBytes, cfg.IQBBytes = 8, 8, 8
	case "16-16":
		cfg.LineBytes, cfg.IQBytes, cfg.IQBBytes = 16, 16, 16
	case "16-32":
		cfg.LineBytes, cfg.IQBytes, cfg.IQBBytes = 32, 16, 32
	case "32-32":
		cfg.LineBytes, cfg.IQBytes, cfg.IQBBytes = 32, 32, 32
	default:
		return Config{}, fmt.Errorf("pipesim: unknown Table II configuration %q", name)
	}
	return cfg, nil
}

// toCore translates the public configuration to the internal one.
func (c Config) toCore() (core.Config, error) {
	var strat core.FetchStrategy
	switch c.Strategy {
	case StrategyPIPE:
		strat = core.FetchPIPE
	case StrategyConventional:
		strat = core.FetchConventional
	case StrategyTIB:
		strat = core.FetchTIB
	default:
		return core.Config{}, fmt.Errorf("pipesim: unknown strategy %q", c.Strategy)
	}
	return core.Config{
		Fetch:        strat,
		CacheBytes:   c.CacheBytes,
		LineBytes:    c.LineBytes,
		IQBytes:      c.IQBytes,
		IQBBytes:     c.IQBBytes,
		TruePrefetch: c.TruePrefetch,
		DeepPrefetch: c.DeepPrefetch,
		NativeFormat: c.NativeFormat,
		TIBEntries:   c.TIBEntries,
		TIBLineBytes: c.TIBLineBytes,
		Mem: mem.Config{
			AccessTime:    c.MemAccessTime,
			BusWidthBytes: c.BusWidthBytes,
			Pipelined:     c.PipelinedMemory,
			InstrPriority: c.InstrPriority,
			FPULatency:    c.FPULatency,
		},
		CPU: cpu.Config{
			LAQDepth:        c.LAQDepth,
			LDQDepth:        c.LDQDepth,
			SAQDepth:        c.SAQDepth,
			SDQDepth:        c.SDQDepth,
			DCacheBytes:     c.DCacheBytes,
			DCacheLineBytes: c.DCacheLineBytes,
		},
		InterruptAt:     c.InterruptAt,
		InterruptVector: c.InterruptVector,
		MaxCycles:       c.MaxCycles,
		WatchdogCycles:  c.WatchdogCycles,
		FlightRecDepth:  c.FlightRecorderDepth,
		CacheIntrospect: c.CacheStats,
		CacheTopPCs:     c.CacheTopPCs,
		NoSkipAhead:     c.NoSkipAhead,
	}, nil
}

// MachineCheckError reports a simulator bug: a panic escaping the internal
// packages during a run is recovered and wrapped with the cycle, PC,
// strategy, offending configuration and the tail of the retirement trace
// (its Detail method renders the full report). Simulation never crashes the
// calling process; extract with errors.As.
type MachineCheckError = core.MachineCheckError

// DeadlockError reports that the forward-progress watchdog fired: the run
// retired no instruction for a full WatchdogCycles window. It carries a
// diagnosis of the fetch-engine, CPU-queue and memory-system state at the
// moment the watchdog tripped. Extract with errors.As.
type DeadlockError = core.DeadlockError

// Program is an executable PIPE program image.
type Program struct {
	img *program.Image
}

// LoopInfo describes one Livermore loop of the benchmark workload.
type LoopInfo = kernels.LoopInfo

// BenchmarkInstructions is the exact executed-instruction count of the
// Livermore benchmark, matching the paper.
const BenchmarkInstructions = kernels.TotalInstructions

// LivermoreProgram returns the paper's benchmark program (the first 14
// Lawrence Livermore Loops) along with per-loop metadata. The program and
// its Table I metadata are built once per process; every caller shares the
// program (programs are immutable, so concurrent simulations of it are
// safe) and gets its own copy of the metadata.
func LivermoreProgram() (*Program, []LoopInfo, error) {
	img, err := kernels.SharedProgram()
	if err != nil {
		return nil, nil, err
	}
	return &Program{img: img}, kernels.TableI(), nil
}

// LivermoreKernel returns a single Livermore loop (1..14) as a standalone
// program, built once per process and shared like LivermoreProgram's.
func LivermoreKernel(index int) (*Program, error) {
	img, err := kernels.SharedKernel(index)
	if err != nil {
		return nil, err
	}
	return &Program{img: img}, nil
}

// Assemble translates PIPE assembly source into a program. See the
// internal/asm package documentation (or cmd/pipeasm -help) for the syntax.
func Assemble(src string) (*Program, error) {
	img, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return &Program{img: img}, nil
}

// Compiled is a program produced by the kernel-description language
// compiler, with symbol information for inspecting results.
type Compiled struct {
	// Program is the runnable image.
	Program *Program
	unit    *minic.Unit
}

// CompileKernel compiles kernel-description-language source (see the
// internal/minic package documentation or cmd/pipekc -help for the syntax:
// const/array declarations plus counted loops of float32 array
// assignments) into a runnable program. It plays the role of the paper's
// Fortran compiler for custom workloads.
func CompileKernel(src string) (*Compiled, error) {
	u, err := minic.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Compiled{Program: &Program{img: u.Image}, unit: u}, nil
}

// ArrayAddr returns the byte address of array element name[idx] for use
// with Simulation.ReadWord.
func (c *Compiled) ArrayAddr(name string, idx int) (uint32, bool) {
	return c.unit.ArrayAddr(name, idx)
}

// Disassemble renders the program's text segment.
func (p *Program) Disassemble() string { return p.img.Disassemble() }

// Lookup returns the byte address of an assembly label.
func (p *Program) Lookup(symbol string) (uint32, bool) { return p.img.Lookup(symbol) }

// Instructions returns the static instruction count of the text segment.
func (p *Program) Instructions() int { return len(p.img.Text) }

// Result collects everything measured in one run. Cycles is the paper's
// performance metric: the total number of cycles to execute the program to
// completion (including draining all memory traffic).
type Result struct {
	// Key is the run's content-addressed identity: the lowercase hex of
	// the sha256 over the canonical configuration and the program image
	// fingerprint (the same key the run cache, the persistent run store
	// and the job checkpoints use). Two runs with the same key are the
	// same machine on the same program and — the simulator being
	// deterministic — produce identical results, so the key is the handle
	// for `pipesim diff` and pipesimd's /v1/compare. Empty on results not
	// produced by Simulation.Run or RunArchived.
	Key string `json:"key,omitempty"`

	Cycles       uint64
	Instructions uint64

	// Pipeline activity.
	Branches      uint64
	TakenBranches uint64
	Loads         uint64
	Stores        uint64

	// Issue-stall attribution.
	StallLDQEmpty   uint64 // waiting on the load data queue (memory latency)
	StallQueueFull  uint64 // a full architectural queue
	StallFetchEmpty uint64 // instruction supply starved

	// Optional data-cache activity (zero when DCacheBytes is 0).
	DCacheHits   uint64
	DCacheMisses uint64

	// Fetch-engine activity.
	CacheHits      uint64
	CacheMisses    uint64
	DemandFetches  uint64
	Prefetches     uint64
	PrefetchBlocks uint64
	BranchFlushes  uint64
	SupplyCycles   uint64 // cycles the engine handed decode an instruction
	StarvedCycles  uint64 // cycles decode wanted an instruction and got none

	// Off-chip traffic by class.
	MemAccepted    map[string]uint64
	WordsDelivered uint64
	InputBusCycles uint64 // cycles the input bus carried data (bus utilization = InputBusCycles/Cycles)
	StoreWords     uint64 // words written to memory or the FPU over the output bus
	FPUOps         uint64

	// Attribution is the exact per-cycle classification of the run: every
	// simulated cycle lands in exactly one bucket, so Attribution.Total()
	// always equals Cycles.
	Attribution Attribution

	// PerLoop holds per-Livermore-loop statistics when the simulation was
	// built with Simulation.CollectPerLoop: index 0 is the region outside
	// every loop (prologue, trailing filler, drain), followed by loops 1-14.
	// Nil otherwise.
	PerLoop []LoopStat

	// CacheStats holds the cache-introspection report — 3C miss
	// classification, per-set heatmap, eviction counts and hot miss PCs —
	// when Config.CacheStats was set. Nil otherwise.
	CacheStats *CacheStats `json:"cache_stats,omitempty"`
}

// CacheStats is the cache-introspection report of one run (see
// Config.CacheStats). Compulsory + Capacity + Conflict equals the run's
// Result.CacheMisses exactly: the shadow models observe the fetch engine's
// own hit/miss accounting sites.
type CacheStats struct {
	// Miss classes per the standard 3C model: Compulsory misses touch a
	// line never referenced before (no cache avoids them); Conflict misses
	// would have hit in a fully-associative cache of the same capacity
	// (the direct-mapped placement is at fault); Capacity misses miss in
	// both (the working set simply exceeds the cache).
	Compulsory uint64 `json:"compulsory"`
	Capacity   uint64 `json:"capacity"`
	Conflict   uint64 `json:"conflict"`

	// Evictions counts tag replacements in the array; DeadEvictions the
	// subset that displaced a line never referenced after its fill (wasted
	// fetch bandwidth).
	Evictions     uint64 `json:"evictions"`
	DeadEvictions uint64 `json:"dead_evictions"`

	// Sets is the per-set (cache frame) heatmap, indexed by set number.
	Sets []CacheSetStats `json:"sets"`

	// HotPCs lists the instruction addresses missing most often, sorted by
	// miss count descending, bounded by Config.CacheTopPCs. Loop and Label
	// are filled when the program carries Livermore loop symbols.
	HotPCs []CacheHotPC `json:"hot_pcs,omitempty"`
}

// Misses sums the three miss classes; by construction it equals
// Result.CacheMisses.
func (c *CacheStats) Misses() uint64 { return c.Compulsory + c.Capacity + c.Conflict }

// CacheSetStats is one cache set's row of the introspection heatmap.
type CacheSetStats struct {
	Accesses      uint64 `json:"accesses"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	DeadEvictions uint64 `json:"dead_evictions"`
}

// CacheHotPC is one entry of the hot miss-PC table.
type CacheHotPC struct {
	PC     uint32 `json:"pc"`
	Misses uint64 `json:"misses"`
	Loop   int    `json:"loop,omitempty"`  // Livermore loop number, 0 when unresolved
	Label  string `json:"label,omitempty"` // kernel name, empty when unresolved
}

// Attribution classifies every cycle of a run by what the issue stage did.
// The issue stage is the arbiter: a cycle in which an instruction issues is
// Issue regardless of what the memory system or fetch engine were doing at
// the same time. The fields sum to the run's total cycle count exactly.
type Attribution struct {
	Issue        uint64 // an instruction moved from issue to execute
	FetchStarved uint64 // nothing to issue: instruction supply empty
	LDQWait      uint64 // issue blocked reading an empty Load Data Queue
	QueueFull    uint64 // issue blocked on a full LAQ/SAQ/SDQ
	Drain        uint64 // post-HALT cycles draining memory traffic
	Other        uint64 // interrupt-entry drain, front-end halt bubbles, faults
}

// Total sums the buckets; by construction it equals Result.Cycles.
func (a Attribution) Total() uint64 {
	return a.Issue + a.FetchStarved + a.LDQWait + a.QueueFull + a.Drain + a.Other
}

func attributionFrom(b [stats.NumCycleBuckets]uint64) Attribution {
	return Attribution{
		Issue:        b[stats.CycleIssue],
		FetchStarved: b[stats.CycleFetchStarved],
		LDQWait:      b[stats.CycleLDQWait],
		QueueFull:    b[stats.CycleQueueFull],
		Drain:        b[stats.CycleDrain],
		Other:        b[stats.CycleOther],
	}
}

// CPI returns cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

func resultFrom(st *stats.Sim) *Result {
	accepted := make(map[string]uint64, stats.NumReqKinds)
	for k := stats.ReqKind(0); k < stats.NumReqKinds; k++ {
		accepted[k.String()] = st.Mem.Accepted[k]
	}
	return &Result{
		Cycles:          st.Cycles,
		Instructions:    st.CPU.Instructions,
		Branches:        st.CPU.Branches,
		TakenBranches:   st.CPU.TakenBranches,
		Loads:           st.CPU.Loads,
		Stores:          st.CPU.Stores,
		StallLDQEmpty:   st.CPU.StallLDQEmpty,
		StallQueueFull:  st.CPU.StallQueueFull,
		StallFetchEmpty: st.CPU.StallFetchEmpty,
		DCacheHits:      st.CPU.DCacheHits,
		DCacheMisses:    st.CPU.DCacheMisses,
		CacheHits:       st.Fetch.CacheHits,
		CacheMisses:     st.Fetch.CacheMisses,
		DemandFetches:   st.Fetch.LineFetches,
		Prefetches:      st.Fetch.Prefetches,
		PrefetchBlocks:  st.Fetch.PrefetchBlocks,
		BranchFlushes:   st.Fetch.BranchFlushes,
		SupplyCycles:    st.Fetch.SupplyCycles,
		StarvedCycles:   st.Fetch.StarvedCycles,
		MemAccepted:     accepted,
		WordsDelivered:  st.Mem.WordsDelivered,
		InputBusCycles:  st.Mem.InputBusCycles,
		StoreWords:      st.Mem.StoreWords,
		FPUOps:          st.Mem.FPUOps,
		Attribution:     attributionFrom(st.CPU.CycleBuckets),
		CacheStats:      cacheStatsFrom(st.Cache),
	}
}

// cacheStatsFrom converts the internal introspection block to the public
// mirror (nil in, nil out: introspection off).
func cacheStatsFrom(cs *stats.CacheStats) *CacheStats {
	if cs == nil {
		return nil
	}
	out := &CacheStats{
		Compulsory:    cs.Compulsory,
		Capacity:      cs.Capacity,
		Conflict:      cs.Conflict,
		Evictions:     cs.Evictions,
		DeadEvictions: cs.DeadEvictions,
		Sets:          make([]CacheSetStats, len(cs.Sets)),
	}
	for i, s := range cs.Sets {
		out.Sets[i] = CacheSetStats{
			Accesses:      s.Accesses,
			Misses:        s.Misses,
			Evictions:     s.Evictions,
			DeadEvictions: s.DeadEvictions,
		}
	}
	for _, h := range cs.HotPCs {
		out.HotPCs = append(out.HotPCs, CacheHotPC{PC: h.PC, Misses: h.Misses})
	}
	return out
}

// Run executes the program under the configuration and returns the
// measurements.
func Run(cfg Config, prog *Program) (*Result, error) {
	sim, err := NewSimulation(cfg, prog)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// RunSource reports where a RunArchived result came from.
type RunSource string

// Result sources, slowest path first.
const (
	// RunSimulated: the simulator actually ran.
	RunSimulated RunSource = "simulated"
	// RunFromMemory: served from the in-process run cache.
	RunFromMemory RunSource = "memory"
	// RunFromStore: served from the persistent run store (-store-dir)
	// without re-simulating.
	RunFromStore RunSource = "store"
)

// runSourceOf translates the cache-layer source.
func runSourceOf(src runcache.Source) RunSource {
	switch src {
	case runcache.SourceMemory:
		return RunFromMemory
	case runcache.SourceStore:
		return RunFromStore
	default:
		return RunSimulated
	}
}

// RunArchived executes the program through the process-wide run cache and
// its persistent tier: memory LRU → run store (runcache.Default.SetStore)
// → simulate, returning where the result came from. The simulator is
// deterministic, so a served result is identical to a fresh run of the
// same key. A fresh simulation is written through to both tiers (and
// fires the run hook; served results do not — nothing ran). It is
// NewArchivedRun, Lookup and, on a miss, Simulate.
//
// Cached results replay no events, so probes, tracers and per-loop
// collection need NewSimulation + Run instead. Under the native-format
// relayout the hot miss-PC table keeps raw addresses (loop labels resolve
// against the relaid-out image only a live Simulation holds).
func RunArchived(ctx context.Context, cfg Config, prog *Program) (*Result, RunSource, error) {
	run, err := NewArchivedRun(cfg, prog)
	if err != nil {
		return nil, RunSimulated, err
	}
	if res, src, ok := run.Lookup(ctx); ok {
		return res, src, nil
	}
	res, err := run.Simulate(ctx)
	return res, RunSimulated, err
}

// ArchivedRun is one RunArchived call split in two: Lookup serves a
// cached result without simulating, and Simulate runs the machine on a
// miss. A server answers hits on the request's own goroutine and hands
// only Simulate to a worker or a deadline. The run's key is computed
// once, by NewArchivedRun.
type ArchivedRun struct {
	cfg  Config
	ccfg core.Config
	img  *program.Image
	key  runcache.Key
}

// NewArchivedRun validates the configuration (see Validate) and computes
// the run's content-addressed key.
func NewArchivedRun(cfg Config, prog *Program) (*ArchivedRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg, err := cfg.toCore()
	if err != nil {
		return nil, err
	}
	return &ArchivedRun{cfg: cfg, ccfg: ccfg, img: prog.img, key: runcache.KeyFor(ccfg, prog.img.Fingerprint())}, nil
}

// Lookup serves the run from the run cache's memory tier or its
// persistent store, without simulating; ok is false on a miss (or with
// the cache disabled).
func (a *ArchivedRun) Lookup(ctx context.Context) (res *Result, src RunSource, ok bool) {
	st, rs, ok := runcache.Default.Lookup(ctx, a.key)
	if !ok {
		return nil, RunSimulated, false
	}
	return a.result(st), runSourceOf(rs), true
}

// Simulate runs the machine, writes the result through both run-cache
// tiers and fires the run hook.
func (a *ArchivedRun) Simulate(ctx context.Context) (*Result, error) {
	start := time.Now()
	st, err := runcache.Default.Fill(ctx, a.key, a.ccfg, a.img)
	if err != nil {
		fireRunHook(a.cfg, nil, err, time.Since(start))
		return nil, err
	}
	res := a.result(st)
	fireRunHook(a.cfg, res, nil, time.Since(start))
	return res, nil
}

// result converts cached or fresh statistics into the run's Result.
func (a *ArchivedRun) result(st *stats.Sim) *Result {
	res := resultFrom(st)
	res.Key = a.key.String()
	if !a.cfg.NativeFormat {
		resolveHotPCs(res, a.img)
	}
	return res
}

// Probe consumes the simulator's typed observability event stream: one
// KindCycle event per simulated cycle carrying the attribution bucket, plus
// cache hits/misses, fetch and prefetch issue/complete pairs, branch
// flushes, queue-occupancy samples, input-bus activity, retirements and
// Livermore-loop transitions. Attach with Simulation.Observe before Run.
// Probes are called synchronously from inside the simulated cycle and must
// not mutate simulator state.
type Probe = obs.Probe

// ProbeFunc adapts a plain function to the Probe interface.
type ProbeFunc = obs.ProbeFunc

// ProbeEvent is one typed occurrence: the kind, the cycle it happened in,
// and kind-specific payload fields (see the Kind constants' documentation).
type ProbeEvent = obs.Event

// ProbeKind enumerates the event types a Probe receives.
type ProbeKind = obs.Kind

// Probe event kinds.
const (
	EventCycle            = obs.KindCycle
	EventCacheHit         = obs.KindCacheHit
	EventCacheMiss        = obs.KindCacheMiss
	EventFetchIssue       = obs.KindFetchIssue
	EventFetchComplete    = obs.KindFetchComplete
	EventPrefetchIssue    = obs.KindPrefetchIssue
	EventPrefetchComplete = obs.KindPrefetchComplete
	EventPrefetchBlocked  = obs.KindPrefetchBlocked
	EventBranchFlush      = obs.KindBranchFlush
	EventQueueDepth       = obs.KindQueueDepth
	EventBusBusy          = obs.KindBusBusy
	EventMemAccept        = obs.KindMemAccept
	EventRetire           = obs.KindRetire
	EventLoopEnter        = obs.KindLoopEnter
	EventLoopExit         = obs.KindLoopExit
	EventCacheEvict       = obs.KindCacheEvict
)

// Timeline is a Probe rendering the event stream as a Chrome-trace /
// Perfetto timeline (load the written JSON in chrome://tracing or
// https://ui.perfetto.dev): spans for the pipeline's cycle attribution,
// off-chip fetches, prefetches and Livermore loops; counters for queue
// occupancy and input-bus words; instants for branch flushes and blocked
// prefetches. Build with NewTimeline, attach with Simulation.Observe, run,
// then WriteTo.
type Timeline = obs.Timeline

// NewTimeline returns an empty timeline probe.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// LoopStat aggregates the activity attributed to one Livermore loop — see
// Result.PerLoop.
type LoopStat = obs.LoopStat

// Simulation is one configured machine loaded with a program, for callers
// that want to attach observability probes or inspect memory after the run.
type Simulation struct {
	cfg     Config
	ccfg    core.Config
	key     runcache.Key
	inner   *core.Simulator
	probes  obs.Multi
	perloop *obs.PerLoop
	last    *stats.Sim // raw statistics of the completed run (for Archive)
}

// NewSimulation builds a machine for the program. The configuration is
// checked with Validate first, so every invalid field is reported as an
// error before any machine state is built.
func NewSimulation(cfg Config, prog *Program) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg, err := cfg.toCore()
	if err != nil {
		return nil, err
	}
	inner, err := core.New(ccfg, prog.img)
	if err != nil {
		return nil, err
	}
	return &Simulation{
		cfg:   cfg,
		ccfg:  ccfg,
		key:   runcache.KeyFor(ccfg, prog.img.Fingerprint()),
		inner: inner,
	}, nil
}

// Key returns the simulation's content-addressed identity (see Result.Key),
// available before Run.
func (s *Simulation) Key() string { return s.key.String() }

// Observe attaches a probe to the simulation's event stream. Call before
// Run; multiple probes may be attached and each receives every event. An
// attached probe turns skip-ahead off (results are unchanged); without one
// events go only to the always-on flight recorder, so an unobserved
// simulation runs at full speed.
func (s *Simulation) Observe(p Probe) {
	s.probes = append(s.probes, p)
	s.inner.SetProbe(s.probes)
}

// CollectPerLoop arranges per-Livermore-loop statistics: loop PC ranges are
// resolved against the image the simulator actually runs (correct under the
// native-format relayout), loop transitions are watched on the retirement
// stream, and Result.PerLoop is populated after Run. The program must carry
// the benchmark's loop symbols (LivermoreProgram does); call before Run.
func (s *Simulation) CollectPerLoop() error {
	if s.perloop != nil {
		return nil
	}
	ranges, err := kernels.LoopRanges(s.inner.Image())
	if err != nil {
		return err
	}
	s.inner.SetLoopRanges(ranges)
	s.perloop = obs.NewPerLoop(ranges)
	s.Observe(s.perloop)
	return nil
}

// RunInfo describes one completed run for RunHook observers: the
// configuration that ran, the wall-clock time it took, and exactly one of
// Result and Err.
type RunInfo struct {
	Config  Config
	Result  *Result // nil when the run failed
	Err     error   // nil when the run succeeded
	Elapsed time.Duration
}

// RunHook observes every completed run in the process — a metrics sink
// for serving layers (cmd/pipesimd records per-strategy cycle histograms
// and attribution totals through it). Hooks run synchronously on the
// goroutine that called Run, after the simulation finished; they must be
// safe for concurrent use when runs are concurrent.
type RunHook func(RunInfo)

// runHook holds the installed hook; a typed nil inside the atomic.Value
// is avoided by only storing non-nil wrappers and flagging emptiness.
var runHook atomic.Value // RunHook

// SetRunHook installs (or, with nil, removes) the process-wide run hook.
// The unset path costs one atomic load per Run — nothing per simulated
// cycle — so an unhooked library runs at full speed (see
// BenchmarkRunHookOverhead).
func SetRunHook(h RunHook) { runHook.Store(h) }

func fireRunHook(cfg Config, res *Result, err error, elapsed time.Duration) {
	if h, _ := runHook.Load().(RunHook); h != nil {
		h(RunInfo{Config: cfg, Result: res, Err: err, Elapsed: elapsed})
	}
}

// Run executes to completion (once per Simulation).
func (s *Simulation) Run() (*Result, error) {
	start := time.Now()
	st, err := s.inner.Run()
	if err != nil {
		fireRunHook(s.cfg, nil, err, time.Since(start))
		return nil, err
	}
	s.last = st
	res := resultFrom(st)
	res.Key = s.key.String()
	if s.perloop != nil {
		res.PerLoop = s.perloop.Stats()
	}
	resolveHotPCs(res, s.inner.Image())
	fireRunHook(s.cfg, res, nil, time.Since(start))
	return res, nil
}

// Archive writes the completed run — statistics plus any collected
// per-loop breakdown — into the persistent run store under its
// content-addressed key, making it a referencable side for `pipesim diff`
// and /v1/compare. Call after a successful Run.
func (s *Simulation) Archive(store *runstore.Store) error {
	if s.last == nil {
		return fmt.Errorf("pipesim: Archive before a successful Run")
	}
	rec := &runstore.Record{Key: s.key.String(), Config: s.ccfg, Sim: *s.last}
	if s.perloop != nil {
		rec.PerLoop = s.perloop.Stats()
	}
	return store.PutRecord(rec)
}

// resolveHotPCs labels the hot miss-PC table with Livermore loop numbers
// and kernel names, resolved against the image the simulator ran (correct
// under the native-format relayout). Programs without the benchmark's loop
// symbols keep the raw addresses (the resolution error is deliberately
// ignored).
func resolveHotPCs(res *Result, img *program.Image) {
	if res.CacheStats == nil || len(res.CacheStats.HotPCs) == 0 {
		return
	}
	ranges, err := kernels.LoopRanges(img)
	if err != nil {
		return
	}
	for i := range res.CacheStats.HotPCs {
		pc := res.CacheStats.HotPCs[i].PC
		for _, r := range ranges {
			if pc >= r.Start && pc < r.End {
				res.CacheStats.HotPCs[i].Loop = r.Loop
				res.CacheStats.HotPCs[i].Label = r.Name
				break
			}
		}
	}
}

// RecentEvents returns a snapshot of the flight recorder's retained events,
// oldest first — the same tail a MachineCheckError or DeadlockError would
// carry, available even after a successful run. Nil when the recorder was
// disabled (Config.FlightRecorderDepth < 0). Call after Run.
func (s *Simulation) RecentEvents() []ProbeEvent { return s.inner.FlightEvents() }

// WriteFlightTrace renders a flight-recorder snapshot (RecentEvents, or the
// Recent field of a MachineCheckError/DeadlockError) as Chrome-trace JSON
// loadable in chrome://tracing or https://ui.perfetto.dev. Unlike a full
// Timeline it covers only the ring's bounded tail, but it needs no probe
// attached up front — the post-mortem path of cmd/pipesim -flightrec-dump.
func WriteFlightTrace(w io.Writer, events []ProbeEvent) error {
	return obs.WriteFlightTrace(w, events)
}

// TraceTo streams every retired instruction (cycle, PC, disassembly) to w,
// stopping after limit lines (0 = unlimited). It is a probe like any other
// (see Observe), so it turns skip-ahead off; results are unchanged. Call
// before Run.
func (s *Simulation) TraceTo(w io.Writer, limit uint64) {
	var n uint64
	s.Observe(ProbeFunc(func(e ProbeEvent) {
		if e.Kind != obs.KindRetire || (limit > 0 && n >= limit) {
			return
		}
		n++
		fmt.Fprintln(w, s.inner.DecodeRetire(e))
	}))
}

// ReadWord returns the final memory word at a 4-byte-aligned address.
func (s *Simulation) ReadWord(addr uint32) uint32 { return s.inner.ReadWord(addr) }

// Reg returns a data register's final value.
func (s *Simulation) Reg(r int) int32 { return s.inner.Reg(r) }

// LivermoreArrayAddr returns the address of array element name[idx] of
// Livermore loop `loop` within a program built by LivermoreProgram, for
// inspecting kernel results.
func LivermoreArrayAddr(prog *Program, loop int, name string, idx int32) (uint32, error) {
	return kernels.ArrayAddr(prog.img, loop, name, idx)
}
