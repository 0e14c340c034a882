package main

// Server-Sent Events streaming of the telemetry bus. Two endpoints:
//
//	GET /v1/events            the global firehose (?kind=, ?job= filters)
//	GET /v1/jobs/{id}/events  one job's stream with exactly-once outcomes
//
// The firehose is live-only best-effort: each connection gets a bounded
// ring subscription, and a consumer that cannot keep up loses the oldest
// events (counted in pipesimd_eventbus_dropped_total) instead of
// backpressuring the simulation path. The per-job stream is stronger:
// terminal point outcomes carry the job's outcome-log index as the SSE
// event ID, the handler replays the log past the client's Last-Event-ID
// before going live, deduplicates live events by index, and fills any
// index a live event overtook from the log — so a consumer that
// reconnects (even across a daemon crash, thanks to the checkpointed
// indexes) observes every outcome exactly once, in index order.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pipesim/internal/eventbus"
	"pipesim/internal/jobs"
	"pipesim/internal/sweep"
)

// registeredEventKinds is every kind the daemon publishes on the bus. A
// ?kind= filter entry must name one of these exactly or be a dotted prefix
// of one ("job" matches job.start; "job.s" matches nothing): anything else
// is a typo that would silently stream zero events forever, so handleEvents
// rejects it up front.
var registeredEventKinds = []string{
	jobs.KindJobQueued,
	jobs.KindJobStart,
	jobs.KindJobRecovering,
	jobs.KindJobBackoff,
	jobs.KindJobEnd,
	jobs.KindPointOK,
	jobs.KindPointResumed,
	jobs.KindPointRetry,
	jobs.KindPointFailed,
	jobs.KindCkptAppend,
	sweep.KindExperiment,
}

// validEventKind reports whether k exactly names a registered kind or is a
// dotted prefix of one.
func validEventKind(k string) bool {
	for _, rk := range registeredEventKinds {
		if rk == k || strings.HasPrefix(rk, k+".") {
			return true
		}
	}
	return false
}

// defaultSSEHeartbeat is the idle-stream comment interval when -sse-heartbeat
// is not set: frequent enough to defeat common proxy idle timeouts.
const defaultSSEHeartbeat = 15 * time.Second

// sseWriter frames Server-Sent Events over one response.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// newSSEWriter upgrades the response to an event stream, or reports that
// the connection cannot stream.
func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	f.Flush() // push the headers now — the first event may be a long wait away
	return &sseWriter{w: w, f: f}, true
}

// event writes one SSE frame: optional id, optional event name, one JSON
// data line.
func (s *sseWriter) event(id, name string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id != "" {
		fmt.Fprintf(s.w, "id: %s\n", id)
	}
	if name != "" {
		fmt.Fprintf(s.w, "event: %s\n", name)
	}
	if _, err := fmt.Fprintf(s.w, "data: %s\n\n", b); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// comment writes a heartbeat comment frame (ignored by EventSource
// parsers, but keeps the connection from idling out).
func (s *sseWriter) comment(text string) error {
	if _, err := fmt.Fprintf(s.w, ": %s\n\n", text); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// endEvent is the terminal frame of a cleanly closed stream.
type endEvent struct {
	Reason string `json:"reason"` // "job_terminal" or "draining"
}

// handleEvents is the global firehose: every bus event this daemon
// publishes, optionally filtered by ?kind= (comma-separated exact kinds
// or dotted prefixes) and ?job=. The SSE id is the bus-wide sequence
// number. Live-only: events published before the subscription are gone.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	opt := eventbus.SubOptions{Buffer: s.eventsBuffer, Job: r.URL.Query().Get("job")}
	if raw := r.URL.Query().Get("kind"); raw != "" {
		for _, k := range strings.Split(raw, ",") {
			if k = strings.TrimSpace(k); k != "" {
				if !validEventKind(k) {
					s.fail(w, r, errKindBadRequest, fmt.Errorf(
						"unknown event kind %q (registered kinds: %s)",
						k, strings.Join(registeredEventKinds, ", ")))
					return
				}
				opt.Kinds = append(opt.Kinds, k)
			}
		}
	}
	sub := s.bus.Subscribe(opt)
	defer sub.Close()
	sse, ok := newSSEWriter(w)
	if !ok {
		s.fail(w, r, errKindInternal, errors.New("response writer cannot stream"))
		return
	}
	s.streamLive(r, sse, sub, nil)
}

// handleJobEvents streams one job's events with exactly-once terminal
// outcomes. The subscription is opened before the outcome-log snapshot,
// so an outcome is either in the replayed log or arrives on the bus —
// never lost in between; duplicates are cut by the log index carried as
// the SSE event ID. `Last-Event-ID` (or ?after=) resumes past outcomes
// already seen, including across a daemon restart: the indexes are
// persisted in the job checkpoint and rebound on recovery.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	m := s.requireJobs(w, r)
	if m == nil {
		return
	}
	id := r.PathValue("id")
	after := 0
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		if n, err := strconv.Atoi(raw); err == nil && n > 0 {
			after = n
		}
	}
	if raw := r.URL.Query().Get("after"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.fail(w, r, errKindBadRequest, fmt.Errorf("bad after %q", raw))
			return
		}
		after = n
	}

	// Subscribe first, snapshot second: the ordering that makes the
	// union of replay and live stream complete.
	sub := s.bus.Subscribe(eventbus.SubOptions{Buffer: s.eventsBuffer, Job: id})
	defer sub.Close()
	outcomes, view, err := m.Outcomes(id, after)
	if err != nil {
		s.fail(w, r, errKindNotFound, err)
		return
	}
	sse, ok := newSSEWriter(w)
	if !ok {
		s.fail(w, r, errKindInternal, errors.New("response writer cannot stream"))
		return
	}

	// Opening snapshot, then the outcome-log replay past the cursor.
	if err := sse.event("", "job.snapshot", view); err != nil {
		return
	}
	cur := &jobCursor{m: m, id: id, last: after}
	for _, o := range outcomes {
		if err := cur.send(sse, o); err != nil {
			return
		}
	}
	if view.State.Terminal() {
		sse.event("", "end", endEvent{Reason: "job_terminal"})
		return
	}
	s.streamLive(r, sse, sub, cur)
}

// jobCursor is a per-job stream's exactly-once state: the highest outcome
// index delivered so far, and the job whose outcome log fills gaps.
type jobCursor struct {
	m    *jobs.Manager
	id   string
	last int
}

// send delivers one indexed outcome with its log index as the resumable
// SSE ID and advances the cursor.
func (c *jobCursor) send(sse *sseWriter, o jobs.PointOutcome) error {
	if err := sse.event(strconv.Itoa(o.Index), "point."+o.Outcome, o); err != nil {
		return err
	}
	if o.Index > c.last {
		c.last = o.Index
	}
	return nil
}

// fillGap delivers the logged outcomes between the cursor and idx. Point
// workers reserve indexes in order but each publishes only after its own
// checkpoint fsync, so a live outcome can overtake a lower index on the
// bus. The log already holds every reserved index: replaying the gap from
// it keeps the stream in index order, and the overtaken event is cut by
// the cursor when it arrives.
func (c *jobCursor) fillGap(sse *sseWriter, idx int) error {
	if idx <= c.last+1 {
		return nil
	}
	logged, _, err := c.m.Outcomes(c.id, c.last)
	if err != nil {
		return nil // job forgotten: deliver what arrives
	}
	for _, o := range logged {
		if o.Index >= idx {
			break
		}
		if err := c.send(sse, o); err != nil {
			return err
		}
	}
	return nil
}

// streamLive pumps bus events to the client until the client goes away,
// the bus drains, or (with a cursor, i.e. a per-job stream) the job
// ends. cursor, when non-nil, makes indexed point outcomes exactly-once:
// events at or below it were already delivered, and a gap below an
// arriving index is filled from the outcome log first.
func (s *server) streamLive(r *http.Request, sse *sseWriter, sub *eventbus.Subscriber, cursor *jobCursor) {
	hb := s.sseHeartbeat
	if hb <= 0 {
		hb = defaultSSEHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	emit := func(ev eventbus.Event) (done, ok bool) {
		id := ""
		payload := ev.Data
		if cursor != nil {
			// Per-job stream: indexed outcomes carry their log index as the
			// resumable ID; anything at or below the cursor was already
			// delivered by the replay or a gap fill.
			if o, isOutcome := ev.Data.(jobs.PointOutcome); isOutcome && o.Index > 0 {
				if o.Index <= cursor.last {
					return false, true
				}
				if err := cursor.fillGap(sse, o.Index); err != nil {
					return false, false
				}
				if err := cursor.send(sse, o); err != nil {
					return false, false
				}
				return false, true
			}
		} else {
			// Firehose: the bus sequence number orders the stream, and the
			// data carries the whole envelope — a multiplexed consumer needs
			// the job and timestamp fields the per-job stream can imply.
			id = strconv.FormatUint(ev.Seq, 10)
			payload = ev
		}
		if err := sse.event(id, ev.Kind, payload); err != nil {
			return false, false
		}
		// A per-job stream closes itself after the job's terminal event.
		if cursor != nil && ev.Kind == jobs.KindJobEnd {
			sse.event("", "end", endEvent{Reason: "job_terminal"})
			return true, false
		}
		return false, true
	}
	drainAndClose := func() {
		for {
			ev, ok := sub.Pop()
			if !ok {
				break
			}
			if done, cont := emit(ev); done || !cont {
				return
			}
		}
		sse.event("", "end", endEvent{Reason: "draining"})
	}

	for {
		// Drain everything buffered before blocking again.
		for {
			ev, ok := sub.Pop()
			if !ok {
				break
			}
			if done, cont := emit(ev); done || !cont {
				return
			}
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.Done():
			// Bus closed (daemon draining): deliver what is buffered, then
			// a terminal frame so the client knows this is a clean close.
			drainAndClose()
			return
		case <-sub.Wait():
		case <-ticker.C:
			if sse.comment("hb") != nil {
				return
			}
		}
	}
}
