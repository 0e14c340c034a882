package obs

import (
	"cmp"
	"sort"
)

// Sink is the one observer of a simulation. The simulator core builds it
// and hands it to every component it constructs — the memory system, the
// cache introspector, the fetch engine and the CPU — so every fact the
// observability layer reports travels one path. The sink holds:
//
//   - the cycle clock, stamped onto every event;
//   - the flight recorder: an always-on window of the most recent events,
//     snapshotted into machine-check and deadlock errors;
//   - an optional Probe receiving the full stamped stream;
//   - the loop ranges against which the retirement stream is matched to
//     emit KindLoopEnter/KindLoopExit for the probe.
//
// Components report through Emit, for the kinds kept in the flight ring,
// and Sample, for the two per-cycle kinds (KindCycle, KindQueueDepth) that
// only a probe sees. A Sink is single-writer: the simulation goroutine.
type Sink struct {
	// Cycle is the simulator clock. The core advances it; every event is
	// stamped with its value.
	Cycle uint64

	// The flight ring is written through an append window: win is
	// ring[:n], and Emit appends to it, calling flush only when the window
	// is full. flush wraps the window back to the start of the ring once
	// it reaches the end, so ring[n:] holds the older events of the
	// previous lap. While a probe is attached the window has one free
	// slot, so every Emit reaches flush and is forwarded. This keeps Emit
	// to one append and one length check, small enough for the inliner; a
	// modulo ring plus a separate probe check is not.
	win     []Event
	ring    []Event
	wrapped bool // ring[len(win):] holds events of the previous lap
	depth   int  // events retained; 0 when recording is off

	probe    Probe
	loops    []LoopRange // by ascending Start
	curLoop  int         // loop the retirement stream is inside (0 = outside)
	loopSeen bool        // a retirement has initialized curLoop
}

// NewSink returns a sink whose flight recorder keeps at least depth events
// (rounded up to a power of two; 0 selects DefaultFlightRecDepth; a
// negative depth turns recording off; depths above MaxFlightRecDepth are
// clamped to it, so the rounding cannot overflow).
func NewSink(depth int) *Sink {
	s := &Sink{}
	if depth == 0 {
		depth = DefaultFlightRecDepth
	}
	depth = min(depth, MaxFlightRecDepth)
	if depth > 0 {
		s.depth = 1
		for s.depth < depth {
			s.depth <<= 1
		}
	}
	// With recording off Emit still appends, into a scratch ring nobody
	// reads, so it stays on its fast path; a one-slot ring would call
	// flush on every event.
	s.ring = make([]Event, cmp.Or(s.depth, DefaultFlightRecDepth))
	s.reslice(0)
	return s
}

// Emit records one event: into the flight ring and, when a probe is
// attached, to the probe with its cycle stamped.
func (s *Sink) Emit(e Event) {
	e.Cycle = s.Cycle
	s.win = append(s.win, e)
	if len(s.win) == cap(s.win) {
		s.flush()
	}
}

// flush forwards the event Emit just appended to the probe, if any, and
// makes room for the next one.
func (s *Sink) flush() {
	n := len(s.win)
	if s.probe != nil {
		// A retirement is matched against the loop ranges first, so a
		// loop's enter event precedes the retire event of its first
		// instruction and collectors attribute that instruction — and the
		// rest of the cycle — to the loop being entered.
		e := s.win[n-1]
		if e.Kind == KindRetire && s.loops != nil {
			s.trackLoop(e.Addr)
		}
		s.probe.Event(e)
	}
	if n == len(s.ring) {
		n, s.wrapped = 0, true
	}
	s.reslice(n)
}

// reslice sets the window to n events, leaving room for one more event
// before the next flush while a probe is attached, or up to the end of the
// ring otherwise.
func (s *Sink) reslice(n int) {
	limit := len(s.ring)
	if s.probe != nil {
		limit = n + 1
	}
	s.win = s.ring[:n:limit]
}

// Sample sends a per-cycle event (KindCycle, KindQueueDepth) to the probe
// only. These kinds are ~70% of the stream and carry no fault context the
// ring's kinds lack, so the flight recorder skips them.
func (s *Sink) Sample(e Event) {
	if s.probe != nil {
		e.Cycle = s.Cycle
		s.probe.Event(e)
	}
}

// Probing reports whether a probe is attached. Components use it to skip
// work that only feeds Sample, such as diffing queue occupancies.
func (s *Sink) Probing() bool { return s.probe != nil }

// SetProbe attaches p to the event stream; nil detaches.
func (s *Sink) SetProbe(p Probe) {
	s.probe = p
	s.reslice(len(s.win))
}

// SetLoopRanges configures the PC ranges the retirement stream is matched
// against while a probe is attached. Ranges must not overlap (loop bodies
// are disjoint code regions); they are copied and kept sorted by Start so
// every retirement resolves its loop with a binary search.
func (s *Sink) SetLoopRanges(ranges []LoopRange) {
	if len(ranges) == 0 {
		s.loops = nil
		return
	}
	s.loops = append([]LoopRange(nil), ranges...)
	sort.Slice(s.loops, func(i, j int) bool { return s.loops[i].Start < s.loops[j].Start })
}

// trackLoop emits loop-transition events when the retirement PC moves
// between configured ranges.
func (s *Sink) trackLoop(pc uint32) {
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
		s.Sample(Event{Kind: KindLoopExit, Arg: uint32(s.curLoop)})
	}
	s.curLoop = loop
	s.loopSeen = true
	if loop != 0 {
		s.Sample(Event{Kind: KindLoopEnter, Arg: uint32(loop)})
	}
}

// FlightEvents returns a copy of the flight recorder's retained events,
// oldest first; nil when recording is off or nothing was recorded. Call it
// only from the simulation goroutine or after the run has stopped.
func (s *Sink) FlightEvents() []Event {
	if s.depth == 0 || (len(s.win) == 0 && !s.wrapped) {
		return nil
	}
	var out []Event
	if s.wrapped {
		out = append(out, s.ring[len(s.win):]...)
	}
	return append(out, s.win...)
}
