// Package fetch implements the instruction-supply strategies compared in
// the paper:
//
//   - Pipe: the paper's contribution — a small direct-mapped instruction
//     cache plus an Instruction Queue (IQ) and Instruction Queue Buffer
//     (IQB) with branch (PBR) lookahead and off-chip prefetch.
//   - Conv: the strongest conventional baseline — Hill's sub-blocked
//     always-prefetch cache.
//   - TIB: a Target Instruction Buffer front end (paper §2.1, AMD29000
//     style), provided as an extension baseline.
//
// All engines implement Engine and present the same protocol to the CPU:
// Head/Consume deliver the dynamic instruction stream, Resolve reports PBR
// outcomes from the execute stage, and Tick advances the engine one cycle
// (issuing off-chip requests through the shared memory system).
package fetch

import (
	"fmt"

	"pipesim/internal/cache"
	"pipesim/internal/isa"
	"pipesim/internal/obs"
	"pipesim/internal/stats"
)

// Engine is the instruction-supply interface the CPU front end consumes.
type Engine interface {
	// Head returns the next instruction of the dynamic stream, if the
	// engine can supply it this cycle.
	Head() (pc uint32, word uint32, ok bool)
	// Consume removes the instruction returned by Head. Call at most once
	// per cycle, only after Head reported ok.
	Consume()
	// Resolve delivers the outcome of the oldest unresolved PBR (called
	// by the CPU from the execute stage).
	Resolve(taken bool, target uint32)
	// Tick advances internal state by one cycle and may issue memory
	// requests. Call after the CPU's cycle work.
	Tick()
	// NextEvent reports whether the next Tick can change machine state:
	// 0 when it can (the core must keep stepping cycle by cycle), or
	// mem.NoEvent when the engine is provably idle — its state cannot
	// change until one of its memory callbacks (line-fill word or
	// completion) or CPU calls (Consume, Resolve, Redirect) mutates it.
	// The classification mirrors Tick exactly but is strictly read-only:
	// it never touches the hit/miss counters or emits events, so calling
	// it any number of times leaves results bit-identical. The core's
	// skip-ahead machinery uses it to jump over quiescent stall spans.
	NextEvent() uint64
	// Redirect abandons the current stream and restarts supply at pc.
	// Used for interrupt entry and return; the caller guarantees no PBR
	// is pending (the pipeline has drained).
	Redirect(pc uint32)
	// ResumePC returns the address of the next unconsumed instruction
	// (the interrupt resume point).
	ResumePC() uint32
	// Stats returns the engine's activity counters.
	Stats() *stats.Fetch
	// SetProbe attaches an observability probe receiving the engine's
	// typed events (cache hits/misses, fetch and prefetch issue/complete,
	// blocked prefetches, branch flushes, queue occupancy). Call before
	// the first Tick; a nil probe disables emission.
	SetProbe(p obs.Probe)
	// SetFlightRecorder attaches the always-on post-mortem event ring (a
	// concrete type, not a Probe: the recorder must stay cheap enough to
	// leave enabled on every run). Call before the first Tick; nil
	// detaches. Engines record their cache, fetch/prefetch and flush
	// events; queue-occupancy samples are deliberately excluded (too
	// frequent to be worth their ring slots).
	SetFlightRecorder(r *obs.FlightRecorder)
	// SetIntrospector attaches the cache-introspection shadow models (a
	// concrete type, like the flight recorder: the classification call
	// rides the engine's own hit/miss accounting sites, so the per-class
	// counts sum exactly to the Stats CacheMisses counter). Call before the
	// first Tick; nil detaches. Engines without a cache array (TIB) ignore
	// the call.
	SetIntrospector(in *cache.Introspector)
	// DebugState renders the engine's occupancy and cursor state in one
	// line, for deadlock and machine-check diagnostics.
	DebugState() string
}

// pendingBranch tracks one PBR between its consumption and the moment the
// stream passes its last delay slot with a known outcome.
type pendingBranch struct {
	redirectAt uint32 // first PC past the delay-slot window
	slotsLeft  int    // delay-slot instructions still to consume
	resolved   bool
	taken      bool
	target     uint32
}

// streamer computes the dynamic instruction stream: it tracks the next PC
// to supply, the delay-slot windows of consumed PBR instructions, and
// whether supply is blocked waiting for a branch outcome. Both fetch
// engines embed one; it is the part of the paper's "I-Fetch control logic"
// that is common to every strategy.
type streamer struct {
	nextPC  uint32
	pending []pendingBranch
	blocked bool // nextPC unknown: oldest window exhausted, PBR unresolved
	halted  bool // a HALT was consumed; the stream has ended
	// varlen marks a native-format stream: instruction lengths vary, so a
	// PBR's window-end address is unknowable when it is consumed; the
	// stored redirectAt is then the conservative end of the PBR itself.
	varlen bool
}

func (s *streamer) reset(pc uint32) {
	s.nextPC = pc
	s.pending = s.pending[:0]
	s.blocked = false
	s.halted = false
}

// pc returns the next PC to supply; ok is false while the stream is blocked
// on an unresolved branch or has halted.
func (s *streamer) pc() (uint32, bool) {
	return s.nextPC, !s.blocked && !s.halted
}

// oldestUnresolved returns the redirect point of the oldest unresolved PBR
// window, if any. Instructions at addresses below it on the sequential path
// are guaranteed to execute; anything at or past it is speculative. The
// PIPE engine uses this for the paper's off-chip fetch guarantee.
func (s *streamer) oldestUnresolved() (uint32, bool) {
	for _, p := range s.pending {
		if !p.resolved {
			return p.redirectAt, true
		}
	}
	return 0, false
}

// consume advances the stream past the instruction word at nextPC, whose
// encoded length is nbytes, and returns the engine-visible consequences:
// redirected reports that nextPC jumped to a branch target (stale
// sequential words must be flushed).
func (s *streamer) consume(word uint32, nbytes uint32) (redirected bool) {
	pc := s.nextPC
	if s.blocked || s.halted {
		panic("fetch: consume while stream blocked or halted")
	}
	if isa.Opcode(word>>24) == isa.OpHALT {
		s.halted = true
		return false
	}
	// Every consumed instruction — including a nested PBR — fills one
	// delay slot of each open window.
	for i := range s.pending {
		if s.pending[i].slotsLeft > 0 {
			s.pending[i].slotsLeft--
		}
	}
	if isa.WordIsBranch(word) {
		n := int(isa.WordDelaySlots(word))
		redirectAt := pc + isa.WordBytes*uint32(n+1)
		if s.varlen {
			redirectAt = pc + nbytes // conservative: window end unknown
		}
		s.pending = append(s.pending, pendingBranch{
			redirectAt: redirectAt,
			slotsLeft:  n,
		})
	}
	s.nextPC = pc + nbytes
	return s.settle()
}

// resolve records the outcome of the oldest unresolved PBR.
func (s *streamer) resolve(taken bool, target uint32) (redirected bool) {
	for i := range s.pending {
		if !s.pending[i].resolved {
			s.pending[i].resolved = true
			s.pending[i].taken = taken
			s.pending[i].target = target
			return s.settle()
		}
	}
	panic("fetch: resolve with no unresolved branch")
}

// settle applies exhausted, resolved branch windows to nextPC and updates
// the blocked state. It reports whether nextPC was redirected to a branch
// target.
func (s *streamer) settle() (redirected bool) {
	s.blocked = false
	for len(s.pending) > 0 {
		p := s.pending[0]
		if p.slotsLeft > 0 {
			break // still delivering delay slots
		}
		if !p.resolved {
			s.blocked = true // window exhausted, outcome unknown
			break
		}
		// Pop by compacting in place: re-slicing from the front would
		// strand the backing array's head, and the next append would
		// reallocate once per branch window.
		s.pending = s.pending[:copy(s.pending, s.pending[1:])]
		if p.taken {
			s.nextPC = p.target
			redirected = true
			// Windows opened by PBRs inside the delay slots continue
			// counting in the target stream; nothing else to adjust.
		}
	}
	return redirected
}

func (s *streamer) String() string {
	return fmt.Sprintf("streamer{pc=%#x blocked=%v halted=%v pending=%d}", s.nextPC, s.blocked, s.halted, len(s.pending))
}
