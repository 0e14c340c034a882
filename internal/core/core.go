// Package core composes the substrates — memory system, on-chip cache,
// fetch engine and CPU — into a runnable simulator, mirroring the paper's
// simulation setup (Figure 3): the processor chip connected by an input and
// an output bus to a large external cache (100% hit) and an external
// floating point unit.
package core

import (
	"fmt"
	"runtime/debug"
	"sort"

	"pipesim/internal/cache"
	"pipesim/internal/cpu"
	"pipesim/internal/fetch"
	"pipesim/internal/isa"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/stats"
	"pipesim/internal/trace"
)

// FetchStrategy selects the instruction-supply strategy under test.
type FetchStrategy int

const (
	// FetchPIPE is the paper's contribution: instruction cache + IQ + IQB.
	FetchPIPE FetchStrategy = iota
	// FetchConventional is Hill's always-prefetch sub-blocked cache.
	FetchConventional
	// FetchTIB is the Target Instruction Buffer front end (extension).
	FetchTIB
)

// String names the strategy.
func (f FetchStrategy) String() string {
	switch f {
	case FetchPIPE:
		return "pipe"
	case FetchConventional:
		return "conventional"
	case FetchTIB:
		return "tib"
	}
	return fmt.Sprintf("strategy(%d)", int(f))
}

// Config is a complete simulation configuration.
type Config struct {
	Fetch FetchStrategy

	// On-chip instruction cache geometry.
	CacheBytes int
	LineBytes  int

	// PIPE-specific queue sizes (Table II) and prefetch policy.
	IQBytes      int
	IQBBytes     int
	TruePrefetch bool
	DeepPrefetch bool

	// NativeFormat runs the program in the PIPE chip's 16/32-bit
	// two-parcel instruction encoding (paper simulation parameter 1)
	// instead of the fixed 32-bit format used for all presented results.
	// The image is relaid at parcel granularity; the cache tracks 2-byte
	// sub-blocks. Not supported by the TIB front end.
	NativeFormat bool

	// TIB-specific size (extension).
	TIBEntries   int
	TIBLineBytes int

	Mem mem.Config
	CPU cpu.Config

	// InterruptAt raises the single-level interrupt at the given cycle
	// (0 = never); fetch redirects to InterruptVector at the next clean
	// instruction boundary. See the cpu package for the entry/return
	// protocol.
	InterruptAt     uint64
	InterruptVector uint32

	// MaxCycles aborts a run that fails to complete (simulator-bug guard).
	// Zero selects a generous default.
	MaxCycles uint64

	// WatchdogCycles is the forward-progress watchdog window: a run that
	// retires no instruction for this many consecutive cycles is declared
	// deadlocked and returns a DeadlockError with a diagnosis of the
	// fetch-engine, CPU and memory-system state, long before MaxCycles
	// would fire. Zero selects DefaultWatchdogCycles.
	WatchdogCycles uint64

	// FlightRecDepth sizes the always-on flight recorder: the ring of
	// recent probe events snapshotted into MachineCheckError and
	// DeadlockError for post-mortem diagnosis. Zero selects
	// obs.DefaultFlightRecDepth (on by default); a negative value disables
	// recording. Purely observational — it never changes simulation
	// results, so runcache deliberately excludes it from its keys.
	FlightRecDepth int

	// CacheIntrospect enables the cache-introspection layer: 3C miss
	// classification via shadow models, per-set heatmaps with
	// dead-on-eviction tracking, and the hot miss-PC table, reported in
	// stats.Sim.Cache. Off by default. Introspection never changes cycle
	// counts, but it does add content to the result, so runcache includes
	// it (unlike FlightRecDepth). Ignored by the TIB front end, which has
	// no shared cache array.
	CacheIntrospect bool

	// CacheTopPCs bounds the hot miss-PC table when introspection is on.
	// Zero selects DefaultCacheTopPCs; negative keeps every PC.
	CacheTopPCs int

	// NoSkipAhead disables the event-driven fast path: with it set, Run
	// steps every cycle unconditionally instead of jumping over spans in
	// which every unit is provably quiescent. Results are bit-identical
	// either way — the skipped cycles are folded into the same attribution
	// buckets and stall counters the stepped path would have incremented —
	// so the knob exists only for differential testing and debugging, and
	// runcache deliberately excludes it from its keys. Skip-ahead also
	// turns itself off while a probe is attached, keeping the per-cycle
	// event stream (KindCycle, queue depths) exact for timeline and
	// per-loop collectors.
	NoSkipAhead bool
}

// DefaultCacheTopPCs is the hot miss-PC table size used when
// CacheIntrospect is set and CacheTopPCs is zero.
const DefaultCacheTopPCs = 10

// DefaultConfig returns the configuration used as the paper's baseline
// presentation point: the PIPE 16-16 arrangement, instruction priority,
// true prefetch, 1-cycle non-pipelined memory, 4-byte bus.
func DefaultConfig() Config {
	return Config{
		Fetch:        FetchPIPE,
		CacheBytes:   128,
		LineBytes:    16,
		IQBytes:      16,
		IQBBytes:     16,
		TruePrefetch: true,
		Mem: mem.Config{
			AccessTime:    1,
			BusWidthBytes: 4,
			Pipelined:     false,
			InstrPriority: true,
			FPULatency:    4,
		},
		CPU: cpu.DefaultConfig(),
	}
}

// Validate reports configuration errors beyond what the substrates check.
func (c Config) Validate() error {
	if c.CacheBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("core: cache %dB line %dB invalid", c.CacheBytes, c.LineBytes)
	}
	return nil
}

// Simulator is one configured run over one program.
type Simulator struct {
	cfg Config
	img *program.Image
	sys *mem.System
	eng fetch.Engine
	cpu *cpu.CPU
	st  stats.Sim
	ran bool

	cycle   uint64      // current cycle, for machine-check context
	ring    *trace.Ring // tail of the retirement stream, for diagnostics
	userRec trace.Recorder

	probe    obs.Probe       // stamped user probe, or nil
	loops    []obs.LoopRange // configured loop ranges, by ascending Start
	curLoop  int             // loop number the retirement stream is inside (0 = outside)
	loopSeen bool            // a retirement has initialized curLoop

	flight *obs.FlightRecorder // always-on post-mortem ring, nil when disabled
	intr   *cache.Introspector // cache introspection, nil when disabled

	skipped uint64 // cycles elided by skip-ahead (diagnostics/tests only)
}

// New builds a simulator for the image.
func New(cfg Config, img *program.Image) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	s := &Simulator{cfg: cfg, img: img}
	var err error
	if cfg.NativeFormat && !img.Native {
		img, err = program.ToNative(img)
		if err != nil {
			return nil, err
		}
		s.img = img
	}
	s.sys, err = mem.New(cfg.Mem, img, &s.st.Mem)
	if err != nil {
		return nil, err
	}
	subBlock := isa.WordBytes
	if img.Native {
		subBlock = isa.ParcelBytes
	}
	arr, err := cache.New(cfg.CacheBytes, cfg.LineBytes, subBlock)
	if err != nil {
		return nil, err
	}
	switch cfg.Fetch {
	case FetchPIPE:
		s.eng, err = fetch.NewPipe(fetch.PipeConfig{
			CacheBytes:   cfg.CacheBytes,
			LineBytes:    cfg.LineBytes,
			IQBytes:      cfg.IQBytes,
			IQBBytes:     cfg.IQBBytes,
			TruePrefetch: cfg.TruePrefetch,
			DeepPrefetch: cfg.DeepPrefetch,
		}, arr, img, s.sys, img.Entry)
	case FetchConventional:
		s.eng, err = fetch.NewConv(fetch.ConvConfig{
			CacheBytes: cfg.CacheBytes,
			LineBytes:  cfg.LineBytes,
			ChunkBytes: cfg.Mem.BusWidthBytes,
		}, arr, img, s.sys, img.Entry)
	case FetchTIB:
		s.eng, err = fetch.NewTIB(fetch.TIBConfig{
			Entries:   cfg.TIBEntries,
			LineBytes: cfg.TIBLineBytes,
		}, img, s.sys, img.Entry)
	default:
		err = fmt.Errorf("core: unknown fetch strategy %d", cfg.Fetch)
	}
	if err != nil {
		return nil, err
	}
	if cfg.CacheIntrospect && cfg.Fetch != FetchTIB {
		topN := cfg.CacheTopPCs
		if topN == 0 {
			topN = DefaultCacheTopPCs
		}
		s.intr = cache.NewIntrospector(cfg.CacheBytes, cfg.LineBytes, topN, img.NativeTextEnd())
		// Evictions surface as KindCacheEvict probe/flight events. The
		// closure reads the recorder and probe fields at call time, so it
		// is safe to build before either is attached.
		s.intr.OnEvict = func(set int, lineAddr uint32, dead bool) {
			var val uint64
			if dead {
				val = 1
			}
			if s.flight != nil {
				s.flight.Record(obs.KindCacheEvict, lineAddr, uint32(set), val)
			}
			if s.probe != nil {
				s.probe.Event(obs.Event{Kind: obs.KindCacheEvict, Addr: lineAddr, Arg: uint32(set), Value: val})
			}
		}
		arr.SetIntrospector(s.intr)
		s.eng.SetIntrospector(s.intr)
	}
	s.cpu, err = cpu.New(cfg.CPU, s.eng, s.sys, &s.st.CPU)
	if err != nil {
		return nil, err
	}
	if !img.Native {
		// Share the image's predecoded text so consuming an instruction
		// skips the per-fetch decode (native parcel addresses do not
		// index the fixed-format table).
		s.cpu.SetDecodeTable(img.Decoded())
	}
	s.ring, err = trace.NewRing(RetireTraceDepth)
	if err != nil {
		return nil, err
	}
	// The flight recorder is on by default (FlightRecDepth < 0 disables):
	// the fetch engine and memory system write their fault-relevant events
	// into it directly, and retirements are recorded below.
	if cfg.FlightRecDepth >= 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightRecDepth, &s.cycle)
		s.sys.SetFlightRecorder(s.flight)
		s.eng.SetFlightRecorder(s.flight)
	}
	// The diagnostic ring and flight recorder always observe retirements.
	// The CPU writes them directly — they are the common configuration,
	// and an OnRetire closure per retirement is measurable — while a user
	// tracer or probe installs the full hook lazily at Run.
	s.cpu.SetRetireSinks(s.ring, s.flight)
	return s, nil
}

// installRetireHook attaches the OnRetire closure serving the optional
// observers (user tracer, probe with loop tracking). Called at the top of
// Run, once both are finally known; left nil when neither is attached so
// retirement stays on the direct-sink fast path.
func (s *Simulator) installRetireHook() {
	if s.userRec == nil && s.probe == nil {
		s.cpu.OnRetire = nil
		return
	}
	s.cpu.OnRetire = func(cycle uint64, pc uint32, in isa.Inst) {
		if s.userRec != nil {
			s.userRec.Record(trace.Event{Cycle: cycle, PC: pc, Inst: in})
		}
		if s.probe != nil {
			if s.loops != nil {
				s.trackLoop(pc)
			}
			s.probe.Event(obs.Event{Kind: obs.KindRetire, Addr: pc})
		}
	}
}

// SetProbe attaches p to every instrumented component — memory system,
// fetch engine, CPU and the core's own retirement/loop tracking — wrapped
// in an obs.Stamper sharing the simulator clock, so every event carries the
// cycle it occurred in. Call before Run; a nil probe detaches.
func (s *Simulator) SetProbe(p obs.Probe) {
	if p == nil {
		s.probe = nil
		s.sys.SetProbe(nil)
		s.eng.SetProbe(nil)
		s.cpu.SetProbe(nil)
		return
	}
	stamped := &obs.Stamper{Clock: &s.cycle, Target: p}
	s.probe = stamped
	s.sys.SetProbe(stamped)
	s.eng.SetProbe(stamped)
	s.cpu.SetProbe(stamped)
}

// SetLoopRanges configures the PC ranges the retirement stream is matched
// against; transitions emit KindLoopEnter/KindLoopExit to the attached
// probe. Call before Run, with ranges resolved against Image(). Ranges must
// not overlap (loop bodies are disjoint code regions); they are copied and
// kept sorted by Start so every retirement resolves its loop with a binary
// search instead of a scan over all ranges.
func (s *Simulator) SetLoopRanges(ranges []obs.LoopRange) {
	if len(ranges) == 0 {
		s.loops = nil
		return
	}
	s.loops = append([]obs.LoopRange(nil), ranges...)
	sort.Slice(s.loops, func(i, j int) bool { return s.loops[i].Start < s.loops[j].Start })
}

// trackLoop emits loop-transition events when the retirement PC moves
// between configured ranges. A loop's enter event precedes the retire event
// of its first instruction, so collectors attribute that instruction — and
// the rest of the cycle — to the loop being entered.
func (s *Simulator) trackLoop(pc uint32) {
	// The ranges are sorted by Start and disjoint: the only candidate is
	// the last range starting at or before pc.
	loop := 0
	lo, hi := 0, len(s.loops)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.loops[mid].Start <= pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && pc < s.loops[lo-1].End {
		loop = s.loops[lo-1].Loop
	}
	if s.loopSeen && loop == s.curLoop {
		return
	}
	if s.loopSeen && s.curLoop != 0 {
		s.probe.Event(obs.Event{Kind: obs.KindLoopExit, Arg: uint32(s.curLoop)})
	}
	s.curLoop = loop
	s.loopSeen = true
	if loop != 0 {
		s.probe.Event(obs.Event{Kind: obs.KindLoopEnter, Arg: uint32(loop)})
	}
}

// FlightEvents returns a snapshot of the flight recorder's retained events,
// oldest first (nil when recording is disabled). Call after Run: the
// snapshot must not race with the run goroutine.
func (s *Simulator) FlightEvents() []obs.Event { return s.flight.Events() }

// Image returns the program image the simulator actually runs — after any
// native-format relayout — so callers can resolve symbols (for example
// Livermore loop ranges) against the final address map.
func (s *Simulator) Image() *program.Image { return s.img }

// Run executes the program to completion (HALT retired and all memory
// traffic drained) and returns the collected statistics. Run may be called
// once per Simulator.
//
// The returned statistics are owned by the caller: they are a copy that
// shares nothing with the Simulator, so keeping a result does not keep the
// simulator (its simulated RAM, caches and queues) reachable.
//
// Run is total: it never panics. A panic escaping the internal packages —
// a simulator bug — is recovered and returned as a *MachineCheckError
// carrying the cycle, PC, strategy, configuration and the tail of the
// retirement trace. A run that stops retiring instructions trips the
// forward-progress watchdog (Config.WatchdogCycles) and returns a
// *DeadlockError diagnosing the stuck machine state.
func (s *Simulator) Run() (st *stats.Sim, err error) {
	if s.ran {
		return nil, fmt.Errorf("core: Run called twice")
	}
	s.ran = true
	defer func() {
		if p := recover(); p != nil {
			st, err = nil, s.machineCheck(p, debug.Stack())
		}
	}()
	s.installRetireHook()
	watchdog := s.cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = DefaultWatchdogCycles
	}
	var (
		lastRetired  uint64 // retirement count at the last progress cycle
		lastProgress uint64 // most recent cycle that retired an instruction
	)
	// Skip-ahead turns itself off while a probe is attached: collectors
	// consuming the per-cycle event stream (KindCycle, queue depths) need
	// every cycle replayed exactly, not folded.
	skip := !s.cfg.NoSkipAhead && s.probe == nil
	for cycle := uint64(1); ; cycle++ {
		s.cycle = cycle
		s.sys.BeginCycle(cycle)
		s.eng.Tick()
		if s.cfg.InterruptAt != 0 && cycle == s.cfg.InterruptAt {
			s.cpu.RaiseInterrupt(s.cfg.InterruptVector)
		}
		s.cpu.Tick()
		s.sys.EndCycle()
		if err := s.cpu.Err(); err != nil {
			return nil, err
		}
		if s.cpu.Halted() && s.cpu.Drained() && s.sys.Drained() {
			s.st.Cycles = cycle
			break
		}
		if s.st.CPU.Instructions != lastRetired {
			lastRetired = s.st.CPU.Instructions
			lastProgress = cycle
		} else if !s.cpu.Halted() && cycle-lastProgress >= watchdog {
			return nil, s.deadlock(cycle, lastProgress, watchdog)
		}
		if cycle >= s.cfg.MaxCycles {
			return nil, fmt.Errorf("core: no completion within %d cycles (instructions retired: %d)",
				s.cfg.MaxCycles, s.st.CPU.Instructions)
		}
		if !skip {
			continue
		}
		// Event-driven skip-ahead: when the CPU is in a foldable stall and
		// the fetch engine is quiescent, the whole machine's state until
		// the memory system's next event is a pure function of counter
		// arithmetic. Jump the clock there directly, folding the skipped
		// span into exactly the counters the stepped path would have
		// incremented. The jump target is clamped to the interrupt cycle,
		// the watchdog deadline and MaxCycles so those paths fire at
		// identical cycle numbers with identical diagnostics.
		if !s.cpu.MaybeStalled() {
			continue // the ticked cycle was active: next one cannot fold
		}
		prof := s.cpu.StallProfile()
		if prof == cpu.StallNone {
			continue
		}
		if s.eng.NextEvent() == 0 {
			continue
		}
		target := s.sys.NextEvent()
		if s.cfg.InterruptAt > cycle && s.cfg.InterruptAt < target {
			target = s.cfg.InterruptAt
		}
		if !s.cpu.Halted() {
			if deadline := lastProgress + watchdog; deadline > cycle && deadline < target {
				target = deadline
			}
		}
		if s.cfg.MaxCycles < target {
			target = s.cfg.MaxCycles
		}
		if target <= cycle+1 {
			continue // the next cycle has an event anyway: nothing to elide
		}
		n := target - cycle - 1
		s.cpu.FoldStall(prof, n)
		s.skipped += n
		cycle = target - 1
	}
	s.st.Fetch = *s.eng.Stats()
	if s.intr != nil {
		s.st.Cache = s.intr.Stats()
	}
	out := s.st
	return &out, nil
}

// SkippedCycles reports how many cycles the run elided via event-driven
// skip-ahead: Result cycle counts include them (they are folded into the
// attribution buckets), wall-clock work does not. Zero when skip-ahead was
// disabled, a probe was attached, or no fold opportunity arose. Diagnostic
// only — call after Run.
func (s *Simulator) SkippedCycles() uint64 { return s.skipped }

// SetRetireTracer installs a recorder observing every retired instruction.
// Call before Run.
func (s *Simulator) SetRetireTracer(rec trace.Recorder) {
	s.userRec = rec
}

// ReadWord returns the final memory word at addr (after Run), letting
// examples and tests verify kernel results.
func (s *Simulator) ReadWord(addr uint32) uint32 { return s.sys.ReadWord(addr) }

// Reg returns a CPU register value (after Run).
func (s *Simulator) Reg(r int) int32 { return s.cpu.Reg(r) }
