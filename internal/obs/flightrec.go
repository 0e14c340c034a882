package obs

// This file is the flight recorder's read side. The recorder is an
// always-on, fixed-size ring of the most recent events, kept by every
// simulation in its Sink whether or not a probe is attached. When a run
// dies — machine check, watchdog deadlock — the ring is snapshotted into
// the error so the post-mortem shows what the machine was doing in the
// cycles leading up to the fault; the error's retire tail is read from it
// too.
//
// The recorder deliberately does NOT ride the Probe interface: interface
// dispatch is what a probe costs (perfbench's obs.probe_marginal_pct reads
// 24–31% on a 2-core Intel Xeon host, Go 1.24), far outside the always-on
// budget. Components call the sink's inlinable Emit at their medium- and
// low-volume event sites (cache hits/misses, fetch/prefetch brackets,
// flushes, bus transfers, memory accepts, evictions, retirements). The two
// per-cycle-rate kinds — KindCycle and KindQueueDepth, together ~70% of
// the stream — are not recorded: they carry no fault context the retained
// kinds don't.

import (
	"fmt"
	"io"

	"pipesim/internal/stats"
)

// DefaultFlightRecDepth is the flight-recorder ring depth used when a
// configuration leaves it zero: deep enough to span several cache-miss /
// refill rounds before a fault, small enough (256 × 32 B = 8 KiB) to be
// irrelevant next to the simulated memory image.
const DefaultFlightRecDepth = 256

// String renders the event as one stable diagnostic line, used by the
// machine-check and deadlock Detail reports and the /debug/flightrecorder
// endpoint. The format is `[cycle] kind payload` with kind-specific payload
// fields.
func (e Event) String() string {
	switch e.Kind {
	case KindCycle:
		return fmt.Sprintf("[%d] cycle %s", e.Cycle, stats.CycleBucket(e.Arg))
	case KindQueueDepth:
		return fmt.Sprintf("[%d] queue-depth %s=%d", e.Cycle, Queue(e.Arg), e.Value)
	case KindBusBusy:
		return fmt.Sprintf("[%d] bus-busy addr=%#05x words=%d", e.Cycle, e.Addr, e.Value)
	case KindMemAccept:
		return fmt.Sprintf("[%d] mem-accept %s addr=%#05x", e.Cycle, stats.ReqKind(e.Arg), e.Addr)
	case KindRetire:
		return fmt.Sprintf("[%d] retire pc=%#05x", e.Cycle, e.Addr)
	case KindLoopEnter, KindLoopExit:
		return fmt.Sprintf("[%d] %s loop=%d", e.Cycle, e.Kind, e.Arg)
	case KindCacheEvict:
		return fmt.Sprintf("[%d] cache-evict line=%#05x set=%d dead=%v", e.Cycle, e.Addr, e.Arg, e.Value != 0)
	default:
		return fmt.Sprintf("[%d] %s addr=%#05x", e.Cycle, e.Kind, e.Addr)
	}
}

// EventRecord is the JSON rendering of one flight-recorder event, used in
// pipesimd error bodies and the /debug/flightrecorder endpoint. Addresses
// are hex strings so a human reading the response can match them against a
// disassembly without mentally converting decimals.
type EventRecord struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Addr  string `json:"addr,omitempty"`
	Queue string `json:"queue,omitempty"`
	Req   string `json:"req,omitempty"`
	Loop  uint32 `json:"loop,omitempty"`
	Value uint64 `json:"value,omitempty"`
}

// RecordOf converts one event to its JSON rendering.
func RecordOf(e Event) EventRecord {
	r := EventRecord{Cycle: e.Cycle, Kind: e.Kind.String()}
	switch e.Kind {
	case KindQueueDepth:
		r.Queue, r.Value = Queue(e.Arg).String(), e.Value
	case KindBusBusy:
		r.Addr, r.Value = fmt.Sprintf("%#05x", e.Addr), e.Value
	case KindMemAccept:
		r.Addr, r.Req = fmt.Sprintf("%#05x", e.Addr), stats.ReqKind(e.Arg).String()
	case KindLoopEnter, KindLoopExit:
		r.Loop = e.Arg
	case KindCacheEvict:
		r.Addr, r.Value = fmt.Sprintf("%#05x", e.Addr), e.Value
	case KindCycle:
		r.Value = uint64(e.Arg)
	default:
		r.Addr = fmt.Sprintf("%#05x", e.Addr)
	}
	return r
}

// Records converts a snapshot to its JSON rendering, oldest first.
func Records(events []Event) []EventRecord {
	if len(events) == 0 {
		return nil
	}
	out := make([]EventRecord, len(events))
	for i, e := range events {
		out[i] = RecordOf(e)
	}
	return out
}

// WriteFlightTrace replays a flight-recorder snapshot through a
// replay-mode Timeline and writes the Chrome-trace JSON, so a post-mortem
// ring loads in the same chrome://tracing / Perfetto UI as a full -timeline
// run. Events must be in recording order (Events() returns them so).
func WriteFlightTrace(w io.Writer, events []Event) error {
	t := NewReplayTimeline()
	for _, e := range events {
		t.Event(e)
	}
	_, err := t.WriteTo(w)
	return err
}
