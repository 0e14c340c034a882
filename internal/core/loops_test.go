package core

// Tests for the retirement-stream loop tracker, driven through the
// simulator's sink: SetLoopRanges sorts its copy of the ranges and each
// retirement resolves its loop with a binary search, so the lookup must
// agree with a plain linear scan for every PC — inside a range, in the
// gaps between ranges, and at both boundary addresses of each range.

import (
	"testing"

	"pipesim/internal/obs"
)

// recorderProbe keeps the emitted events in order.
type recorderProbe struct{ events []obs.Event }

func (p *recorderProbe) Event(e obs.Event) { p.events = append(p.events, e) }

// loopSim builds a bare Simulator with just the sink the tracker runs in.
func loopSim(ranges []obs.LoopRange) (*Simulator, *recorderProbe) {
	p := &recorderProbe{}
	s := &Simulator{sink: obs.NewSink(-1)}
	s.SetProbe(p)
	s.SetLoopRanges(ranges)
	return s, p
}

// retire reports one retirement at pc through the simulator's sink.
func retire(s *Simulator, pc uint32) {
	s.sink.Emit(obs.Event{Kind: obs.KindRetire, Addr: pc})
}

func TestSetLoopRangesSortsItsCopy(t *testing.T) {
	in := []obs.LoopRange{
		{Loop: 3, Start: 0x300, End: 0x340},
		{Loop: 1, Start: 0x100, End: 0x140},
		{Loop: 2, Start: 0x200, End: 0x240},
	}
	// The binary search only finds every range if the copy was sorted.
	for _, r := range in {
		if got := lookup(in, r.Start); got != r.Loop {
			t.Errorf("pc %#x resolved to loop %d, want %d", r.Start, got, r.Loop)
		}
	}
	// The caller's slice must be untouched (it was copied, not sorted in
	// place).
	if in[0].Loop != 3 {
		t.Error("SetLoopRanges sorted the caller's slice")
	}
	s, p := loopSim(in)
	s.SetLoopRanges(nil)
	retire(s, 0x100)
	if len(p.events) != 1 || p.events[0].Kind != obs.KindRetire {
		t.Errorf("empty input should clear the ranges; events = %+v", p.events)
	}
}

// lookupLinear is the reference implementation: scan every range.
func lookupLinear(ranges []obs.LoopRange, pc uint32) int {
	for _, r := range ranges {
		if pc >= r.Start && pc < r.End {
			return r.Loop
		}
	}
	return 0
}

// lookup retires pc on a fresh tracker and reads back which loop it
// entered (0 when it stayed outside every range).
func lookup(ranges []obs.LoopRange, pc uint32) int {
	s, p := loopSim(ranges)
	retire(s, pc)
	for _, e := range p.events {
		if e.Kind == obs.KindLoopEnter {
			return int(e.Arg)
		}
	}
	return 0
}

func TestTrackLoopMatchesLinearScan(t *testing.T) {
	// Disjoint, deliberately unsorted, with gaps and adjacent ranges.
	ranges := []obs.LoopRange{
		{Loop: 4, Start: 0x400, End: 0x480},
		{Loop: 1, Start: 0x010, End: 0x040},
		{Loop: 3, Start: 0x240, End: 0x400}, // adjacent to loop 4
		{Loop: 2, Start: 0x100, End: 0x140},
	}
	var pcs []uint32
	for _, r := range ranges {
		pcs = append(pcs, r.Start, r.Start+4, r.End-4, r.End, r.End+4)
		if r.Start >= 4 {
			pcs = append(pcs, r.Start-4)
		}
	}
	pcs = append(pcs, 0, 0x0c, 0x1f0, 0x7fc, 0xffff_fffc)
	for _, pc := range pcs {
		want := lookupLinear(ranges, pc)
		if got := lookup(ranges, pc); got != want {
			t.Errorf("pc %#x: binary search found loop %d, linear scan %d", pc, got, want)
		}
	}
}

func TestTrackLoopEmitsTransitions(t *testing.T) {
	ranges := []obs.LoopRange{
		{Loop: 1, Start: 0x100, End: 0x140},
		{Loop: 2, Start: 0x140, End: 0x180},
	}
	s, p := loopSim(ranges)
	for _, pc := range []uint32{0x0f0, 0x100, 0x13c, 0x140, 0x180} {
		retire(s, pc)
	}
	// outside → enter 1 → (stay) → exit 1 + enter 2 → exit 2, each
	// transition ahead of the retirement that caused it.
	want := []obs.Event{
		{Kind: obs.KindRetire, Addr: 0x0f0},
		{Kind: obs.KindLoopEnter, Arg: 1},
		{Kind: obs.KindRetire, Addr: 0x100},
		{Kind: obs.KindRetire, Addr: 0x13c},
		{Kind: obs.KindLoopExit, Arg: 1},
		{Kind: obs.KindLoopEnter, Arg: 2},
		{Kind: obs.KindRetire, Addr: 0x140},
		{Kind: obs.KindLoopExit, Arg: 2},
		{Kind: obs.KindRetire, Addr: 0x180},
	}
	if len(p.events) != len(want) {
		t.Fatalf("events = %+v, want %d", p.events, len(want))
	}
	for i, e := range p.events {
		if e.Kind != want[i].Kind || e.Arg != want[i].Arg || e.Addr != want[i].Addr {
			t.Errorf("event %d = {%v arg %d addr %#x}, want {%v arg %d addr %#x}",
				i, e.Kind, e.Arg, e.Addr, want[i].Kind, want[i].Arg, want[i].Addr)
		}
	}
}
