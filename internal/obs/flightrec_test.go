package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRetainsMostRecent(t *testing.T) {
	// Probe off and on: the ring must keep the same tail either way, across
	// several slides of its backing store.
	for _, probe := range []Probe{nil, &record{}} {
		s := NewSink(4)
		s.SetProbe(probe)
		for i := 0; i < 21; i++ {
			s.Cycle = uint64(i)
			s.Emit(Event{Kind: KindRetire, Addr: uint32(i)})
		}
		ev := s.FlightEvents()
		if len(ev) != 4 {
			t.Fatalf("retained %d events, want 4", len(ev))
		}
		// Oldest first: the ring must hold exactly the last four records.
		for i, e := range ev {
			if want := uint64(17 + i); e.Cycle != want || e.Addr != uint32(want) {
				t.Errorf("event %d: cycle %d addr %d, want %d", i, e.Cycle, e.Addr, want)
			}
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	s := NewSink(8)
	s.Cycle = 7
	s.Emit(Event{Kind: KindCacheMiss, Addr: 0x40})
	s.Emit(Event{Kind: KindCacheHit, Addr: 0x44})
	ev := s.FlightEvents()
	if len(ev) != 2 {
		t.Fatalf("retained %d events, want 2", len(ev))
	}
	if ev[0].Kind != KindCacheMiss || ev[1].Kind != KindCacheHit {
		t.Errorf("order wrong: %v then %v", ev[0].Kind, ev[1].Kind)
	}
	if ev[0].Cycle != 7 {
		t.Errorf("cycle stamp = %d, want the clock value 7", ev[0].Cycle)
	}
}

func TestFlightRecorderDepthRounding(t *testing.T) {
	for _, c := range []struct{ depth, want int }{{5, 8}, {0, DefaultFlightRecDepth}} {
		s := NewSink(c.depth)
		for i := 0; i < 1000; i++ {
			s.Emit(Event{Kind: KindRetire})
		}
		if got := len(s.FlightEvents()); got != c.want {
			t.Errorf("depth %d retains %d events, want %d", c.depth, got, c.want)
		}
	}
}

// TestNewSinkClampsHugeDepth: depths beyond MaxFlightRecDepth are clamped
// to it. Before the clamp the power-of-two round-up overflowed for depths
// above 1<<62 and NewSink never returned.
func TestNewSinkClampsHugeDepth(t *testing.T) {
	for _, depth := range []int{math.MaxInt64, 1<<62 + 1, MaxFlightRecDepth + 1} {
		done := make(chan *Sink, 1)
		go func() { done <- NewSink(depth) }()
		select {
		case s := <-done:
			for i := 0; i < 2*MaxFlightRecDepth; i++ {
				s.Emit(Event{Kind: KindRetire})
			}
			if got := len(s.FlightEvents()); got != MaxFlightRecDepth {
				t.Errorf("depth %d retains %d events, want %d", depth, got, MaxFlightRecDepth)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("NewSink(%d) did not return within 5s", depth)
		}
	}
}

// TestNilFlightRecorderReads checks a negative depth turns recording off:
// the read side is empty while a probe still sees every event.
func TestNilFlightRecorderReads(t *testing.T) {
	s := NewSink(-1)
	rec := &record{}
	s.SetProbe(rec)
	for i := 0; i < 3; i++ {
		s.Emit(Event{Kind: KindRetire})
	}
	if s.FlightEvents() != nil {
		t.Error("disabled recorder retained events")
	}
	if len(rec.events) != 3 {
		t.Errorf("probe saw %d events, want 3", len(rec.events))
	}
}

func TestEventStringFormats(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindRetire, Cycle: 12, Addr: 0x40}, "[12] retire pc=0x00040"},
		{Event{Kind: KindCacheMiss, Cycle: 3, Addr: 0x100}, "[3] cache-miss addr=0x00100"},
		{Event{Kind: KindBusBusy, Cycle: 9, Addr: 0x80, Value: 2}, "[9] bus-busy addr=0x00080 words=2"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRecordsJSONRendering(t *testing.T) {
	events := []Event{
		{Kind: KindRetire, Cycle: 5, Addr: 0x44},
		{Kind: KindBusBusy, Cycle: 6, Addr: 0x80, Value: 4},
	}
	recs := Records(events)
	if len(recs) != 2 {
		t.Fatalf("Records = %d entries", len(recs))
	}
	if recs[0].Kind != "retire" || recs[0].Addr != "0x00044" {
		t.Errorf("retire record = %+v", recs[0])
	}
	if recs[1].Value != 4 {
		t.Errorf("bus-busy record lost the word count: %+v", recs[1])
	}
	if Records(nil) != nil {
		t.Error("Records(nil) must be nil for omitempty")
	}
	if _, err := json.Marshal(recs); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestWriteFlightTraceIsChromeJSON(t *testing.T) {
	events := []Event{
		{Kind: KindFetchIssue, Cycle: 1, Addr: 0x40},
		{Kind: KindCacheMiss, Cycle: 1, Addr: 0x40},
		{Kind: KindMemAccept, Cycle: 2, Addr: 0x40},
		{Kind: KindFetchComplete, Cycle: 8, Addr: 0x40},
		{Kind: KindRetire, Cycle: 9, Addr: 0x40},
	}
	var buf bytes.Buffer
	if err := WriteFlightTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid Chrome-trace JSON: %v\n%s", err, buf.String())
	}
	// The replay must render the post-mortem-only kinds (cache miss, memory
	// accept, retire) that the live timeline does not emit as instants.
	for _, want := range []string{"cache-miss", "mem-accept", "retire"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("flight trace missing %q events:\n%s", want, buf.String())
		}
	}
}
