package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipesim/internal/eventbus"
	"pipesim/internal/jobs"
)

// sseFrame is one decoded Server-Sent Events frame.
type sseFrame struct {
	ID    string
	Event string
	Data  string
}

// sseStream is a test client over one event-stream response.
type sseStream struct {
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

// openSSE connects to an SSE endpoint, optionally sending Last-Event-ID.
func openSSE(t *testing.T, url, lastEventID string) *sseStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	s := &sseStream{resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(s.close)
	return s
}

func (s *sseStream) close() {
	s.cancel()
	s.resp.Body.Close()
}

// next reads frames until a non-comment frame or EOF. Comments (heartbeats)
// are counted via gotComment when non-nil.
func (s *sseStream) next(gotComment *bool) (sseFrame, error) {
	var f sseFrame
	sawField := false
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if sawField {
				return f, nil
			}
			// blank after a comment-only block: keep reading
		case strings.HasPrefix(line, ":"):
			if gotComment != nil {
				*gotComment = true
			}
		case strings.HasPrefix(line, "id: "):
			f.ID, sawField = line[4:], true
		case strings.HasPrefix(line, "event: "):
			f.Event, sawField = line[7:], true
		case strings.HasPrefix(line, "data: "):
			f.Data, sawField = line[6:], true
		default:
			return f, fmt.Errorf("unparseable SSE line %q", line)
		}
	}
}

// collectUntil reads frames until pred returns true (that frame is
// included) or the deadline passes.
func (s *sseStream) collectUntil(t *testing.T, pred func(sseFrame) bool) []sseFrame {
	t.Helper()
	var out []sseFrame
	deadline := time.After(60 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := s.next(nil)
			if err != nil {
				return
			}
			out = append(out, f)
			if pred(f) {
				return
			}
		}
	}()
	select {
	case <-done:
		return out
	case <-deadline:
		s.close()
		<-done
		t.Fatalf("stream did not reach the wanted frame; got %+v", out)
		return nil
	}
}

// metricValue extracts one un-labelled metric's value from Prometheus text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestEventsKindFilterValidation: a ?kind= entry that matches no registered
// kind (neither exactly nor as a dotted prefix) is a 400 up front, not a
// stream that silently never delivers anything.
func TestEventsKindFilterValidation(t *testing.T) {
	_, ts := newTestServer(t)

	for _, bad := range []string{"bogus", "job.s", "jobs", "point.ok.extra", "job,typo"} {
		resp, err := http.Get(ts.URL + "/v1/events?kind=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("kind=%q: status %d, want 400", bad, resp.StatusCode)
			continue
		}
		var apiErr struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Fatalf("kind=%q: non-JSON error body %q", bad, body)
		}
		if apiErr.Kind != errKindBadRequest || !strings.Contains(apiErr.Error, "unknown event kind") {
			t.Errorf("kind=%q: error = %+v", bad, apiErr)
		}
		if !strings.Contains(apiErr.Error, jobs.KindJobStart) {
			t.Errorf("kind=%q: error does not list the registered kinds: %s", bad, apiErr.Error)
		}
	}

	// Exact kinds, dotted prefixes and comma-separated mixes all subscribe.
	for _, good := range []string{"job", "point", "job.start", "point.ok", "ckpt.append", "sweep.experiment", "job.end,point"} {
		s := openSSE(t, ts.URL+"/v1/events?kind="+good, "")
		s.close()
	}
}

// TestSSEHeartbeat: an idle firehose stream receives keepalive comments at
// the configured interval.
func TestSSEHeartbeat(t *testing.T) {
	_, ts := newTestServerOpts(t, serverOptions{runLimit: time.Minute, sseHeartbeat: 30 * time.Millisecond})
	s := openSSE(t, ts.URL+"/v1/events", "")
	got := false
	done := make(chan error, 1)
	go func() {
		// next only returns on a real frame or error; on this idle stream it
		// runs until the close below errors it out, counting heartbeats.
		_, err := s.next(&got)
		done <- err
	}()
	select {
	case <-time.After(2 * time.Second):
	case err := <-done:
		t.Fatalf("idle stream produced a frame or died early: %v", err)
	}
	s.close()
	<-done // join the reader before touching got
	if !got {
		t.Error("no heartbeat comment within 2s at a 30ms interval")
	}
}

// TestJobEventsReplayTerminal: streaming a finished job replays its whole
// outcome log with index IDs and closes with a terminal end frame;
// Last-Event-ID and ?after= cut the replay.
func TestJobEventsReplayTerminal(t *testing.T) {
	_, base := jobsTestServer(t, serverOptions{})
	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, base, v.ID)

	s := openSSE(t, base+"/v1/jobs/"+v.ID+"/events", "")
	frames := s.collectUntil(t, func(f sseFrame) bool { return f.Event == "end" })
	if len(frames) != 4 {
		t.Fatalf("got %d frames %+v, want snapshot + 2 outcomes + end", len(frames), frames)
	}
	if frames[0].Event != "job.snapshot" || !strings.Contains(frames[0].Data, `"done"`) {
		t.Errorf("first frame: %+v, want a terminal job.snapshot", frames[0])
	}
	for i, f := range frames[1:3] {
		if f.Event != "point.ok" || f.ID != strconv.Itoa(i+1) {
			t.Errorf("outcome frame %d: %+v, want point.ok id %d", i, f, i+1)
		}
		var o jobs.PointOutcome
		if err := json.Unmarshal([]byte(f.Data), &o); err != nil {
			t.Fatal(err)
		}
		if o.Index != i+1 || o.Cycles == 0 {
			t.Errorf("outcome payload %d: %+v", i, o)
		}
	}
	if frames[3].Event != "end" || !strings.Contains(frames[3].Data, "job_terminal") {
		t.Errorf("final frame: %+v, want end/job_terminal", frames[3])
	}

	// Resume cursors cut the replay: only indexes past the cursor stream.
	s2 := openSSE(t, base+"/v1/jobs/"+v.ID+"/events?after=1", "")
	frames = s2.collectUntil(t, func(f sseFrame) bool { return f.Event == "end" })
	if len(frames) != 3 || frames[1].ID != "2" {
		t.Errorf("?after=1 frames: %+v, want snapshot + outcome 2 + end", frames)
	}
	s3 := openSSE(t, base+"/v1/jobs/"+v.ID+"/events", "2")
	frames = s3.collectUntil(t, func(f sseFrame) bool { return f.Event == "end" })
	if len(frames) != 2 {
		t.Errorf("Last-Event-ID: 2 frames: %+v, want snapshot + end only", frames)
	}

	// Error paths.
	if r, _ := get(t, base+"/v1/jobs/j-nope-1/events"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream: %d, want 404", r.StatusCode)
	}
	if r, _ := get(t, base+"/v1/jobs/"+v.ID+"/events?after=x"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad after: %d, want 400", r.StatusCode)
	}
}

// TestFirehoseObservesJobLifecycle: a firehose subscriber opened before a
// job is submitted sees the full narrated lifecycle, and kind filters
// restrict what is delivered.
func TestFirehoseObservesJobLifecycle(t *testing.T) {
	srv, base := jobsTestServer(t, serverOptions{})

	all := openSSE(t, base+"/v1/events", "")
	points := openSSE(t, base+"/v1/events?kind=point", "")
	// The handlers subscribe asynchronously; submit only once both streams
	// are attached so job.queued cannot be missed.
	for deadline := time.Now().Add(10 * time.Second); srv.bus.Subscribers() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriptions did not attach")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}

	frames := all.collectUntil(t, func(f sseFrame) bool { return f.Event == jobs.KindJobEnd })
	counts := map[string]int{}
	lastSeq := uint64(0)
	for _, f := range frames {
		counts[f.Event]++
		// Firehose IDs are the bus sequence: strictly increasing.
		seq, err := strconv.ParseUint(f.ID, 10, 64)
		if err != nil || seq <= lastSeq {
			t.Errorf("frame %+v: bus seq id not increasing past %d", f, lastSeq)
		}
		lastSeq = seq
	}
	for kind, want := range map[string]int{
		jobs.KindJobQueued:  1,
		jobs.KindJobStart:   1,
		jobs.KindJobEnd:     1,
		jobs.KindPointOK:    2,
		jobs.KindCkptAppend: 2,
		"sweep.experiment":  2,
	} {
		if counts[kind] != want {
			t.Errorf("firehose saw %d %s events, want %d (all: %v)", counts[kind], kind, want, counts)
		}
	}

	// The ?kind=point stream got exactly the point.* subset.
	okSeen := 0
	got := points.collectUntil(t, func(f sseFrame) bool {
		if f.Event == jobs.KindPointOK {
			okSeen++
		}
		return okSeen == 2
	})
	for _, f := range got {
		if !strings.HasPrefix(f.Event, "point.") {
			t.Errorf("kind-filtered stream leaked %+v", f)
		}
	}
}

// TestJobEventsResumeMidJob: a consumer disconnects mid-job and reconnects
// with Last-Event-ID; the union of both connections is every outcome
// exactly once.
func TestJobEventsResumeMidJob(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	reached := make(chan struct{})
	var once sync.Once
	_, base := jobsTestServer(t, serverOptions{
		jobsPoints: 1,
		jobsFault: func(jobID, pointID string, attempt int) error {
			if calls.Add(1) >= 2 {
				once.Do(func() { close(reached) })
				<-release
			}
			return nil
		},
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}

	// First connection: observe the first point land, then drop.
	s1 := openSSE(t, base+"/v1/jobs/"+v.ID+"/events", "")
	frames := s1.collectUntil(t, func(f sseFrame) bool { return f.Event == jobs.KindPointOK })
	lastID := frames[len(frames)-1].ID
	if lastID != "1" {
		t.Fatalf("first outcome id = %q, want 1", lastID)
	}
	s1.close()

	<-reached
	close(release)
	waitJobDone(t, base, v.ID)

	// Reconnect where we left off: outcome 2 arrives exactly once, 1 never
	// again.
	s2 := openSSE(t, base+"/v1/jobs/"+v.ID+"/events", lastID)
	frames = s2.collectUntil(t, func(f sseFrame) bool { return f.Event == "end" })
	seen := map[string]int{}
	for _, f := range frames {
		if strings.HasPrefix(f.Event, "point.") {
			seen[f.ID]++
		}
	}
	if seen["1"] != 0 || seen["2"] != 1 || len(seen) != 1 {
		t.Errorf("resumed stream outcomes by id = %v, want exactly one delivery of id 2", seen)
	}
}

// TestEventStreamsEndOnDrain: draining the daemon closes every SSE stream
// with a terminal end frame instead of hanging them until the listener
// dies.
func TestEventStreamsEndOnDrain(t *testing.T) {
	srv, ts := newTestServerOpts(t, serverOptions{runLimit: time.Minute})
	s1 := openSSE(t, ts.URL+"/v1/events", "")
	s2 := openSSE(t, ts.URL+"/v1/events?kind=job", "")
	for deadline := time.Now().Add(10 * time.Second); srv.bus.Subscribers() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriptions did not attach")
		}
		time.Sleep(time.Millisecond)
	}

	srv.drain()
	for i, s := range []*sseStream{s1, s2} {
		frames := s.collectUntil(t, func(f sseFrame) bool { return f.Event == "end" })
		last := frames[len(frames)-1]
		if last.Event != "end" || !strings.Contains(last.Data, "draining") {
			t.Errorf("stream %d final frame %+v, want end/draining", i, last)
		}
		// The handler returned: the body is cleanly at EOF.
		if _, err := s.next(nil); !errors.Is(err, io.EOF) {
			t.Errorf("stream %d after end frame: err = %v, want EOF", i, err)
		}
	}
}

// TestEventStreamGoroutineLeak: opening and abandoning many streams leaves
// no handler goroutines behind once the clients disconnect.
func TestEventStreamGoroutineLeak(t *testing.T) {
	srv, ts := newTestServerOpts(t, serverOptions{runLimit: time.Minute})
	before := runtime.NumGoroutine()

	const n = 20
	streams := make([]*sseStream, 0, n)
	for i := 0; i < n; i++ {
		streams = append(streams, openSSE(t, ts.URL+"/v1/events", ""))
	}
	for deadline := time.Now().Add(10 * time.Second); srv.bus.Subscribers() < n; {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriptions did not attach")
		}
		time.Sleep(time.Millisecond)
	}
	for _, s := range streams {
		s.close()
	}

	// Handlers notice the disconnect, unsubscribe and return. Parked
	// transport connections are evicted so client-side goroutines don't
	// mask a server-side leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		if srv.bus.Subscribers() == 0 && runtime.NumGoroutine() <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after closing %d streams: %d subscribers, %d goroutines (baseline %d)",
				n, srv.bus.Subscribers(), runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStalledSubscriberDropsVisible: a subscriber that never drains its
// ring loses the oldest events, and the loss is visible on /metrics.
func TestStalledSubscriberDropsVisible(t *testing.T) {
	srv, base := jobsTestServer(t, serverOptions{})

	// A deliberately stalled direct subscription with a tiny ring: the
	// job's ~10 events overflow it.
	stalled := srv.bus.Subscribe(eventbus.SubOptions{Buffer: 2})
	defer stalled.Close()

	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, base, v.ID)

	_, metrics := get(t, base+"/metrics")
	if d := metricValue(t, metrics, "pipesimd_eventbus_dropped_total"); d == 0 {
		t.Error("stalled subscriber produced no drops in pipesimd_eventbus_dropped_total")
	}
	if p := metricValue(t, metrics, "pipesimd_eventbus_published_total"); p < 8 {
		t.Errorf("pipesimd_eventbus_published_total = %v, want the job's full lifecycle", p)
	}
	if subs := metricValue(t, metrics, "pipesimd_eventbus_subscribers"); subs < 1 {
		t.Errorf("pipesimd_eventbus_subscribers = %v, want >= 1", subs)
	}
	if stalled.Dropped() == 0 {
		t.Error("subscriber-level drop counter is zero")
	}
}

// TestJobEventsSoakKillResume is the daemon-level chaos soak for the
// streaming layer: an SSE consumer follows a job whose daemon is killed
// mid-sweep; a fresh daemon over the same state directory recovers the
// job, and the consumer — reconnecting with Last-Event-ID — observes
// every point outcome exactly once across the crash.
func TestJobEventsSoakKillResume(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	var once sync.Once
	reached := make(chan struct{})
	release := make(chan struct{})

	srvA, baseA := jobsTestServer(t, serverOptions{
		jobsDir:    dir,
		jobsPoints: 1,
		jobsFault: func(jobID, pointID string, attempt int) error {
			if calls.Add(1) <= 2 {
				return nil
			}
			once.Do(func() { close(reached) })
			<-release
			return errors.New("injected worker kill")
		},
	})

	spec := `{"grid":{"variants":["conv"],"cache_sizes":[128,256,512,1024]}}`
	resp, body := postJSON(t, baseA+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}

	// Follow the job until the daemon starts dying. The stream ends with a
	// clean "draining" frame; everything the consumer saw is cursored.
	s1 := openSSE(t, baseA+"/v1/jobs/"+v.ID+"/events", "")
	<-reached // two points are durably checkpointed, the third is held

	seen := map[string]string{} // outcome id -> point
	lastID := 0
	var drainFrames []sseFrame
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for {
			f, err := s1.next(nil)
			if err != nil {
				return
			}
			drainFrames = append(drainFrames, f)
			if strings.HasPrefix(f.Event, "point.") && f.ID != "" {
				var o jobs.PointOutcome
				if err := json.Unmarshal([]byte(f.Data), &o); err != nil {
					continue
				}
				seen[f.ID] = o.Point
				if o.Index > lastID {
					lastID = o.Index
				}
			}
			if f.Event == "end" {
				return
			}
		}
	}()

	// Kill daemon A: drain (ends the SSE stream), stop the job executor
	// mid-point, close the listener. The release only opens once the
	// drain has begun, so the interrupted round parks its pending points.
	srvA.drain()
	<-streamDone
	last := drainFrames[len(drainFrames)-1]
	if last.Event != "end" || !strings.Contains(last.Data, "draining") {
		t.Fatalf("stream over the dying daemon ended with %+v, want end/draining", last)
	}
	if len(seen) != 2 || lastID == 0 {
		t.Fatalf("before the kill the consumer saw outcomes %v (lastID %d), want the 2 checkpointed points", seen, lastID)
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	closeErr := make(chan error, 1)
	go func() { closeErr <- srvA.jobs.Close(closeCtx) }()
	time.Sleep(100 * time.Millisecond) // let Close cancel the executor context
	close(release)
	if err := <-closeErr; err != nil {
		t.Fatalf("draining daemon A's jobs: %v", err)
	}

	// Daemon B over the same state directory recovers the job.
	srvB, baseB := jobsTestServer(t, serverOptions{jobsDir: dir})
	resumed, err := srvB.jobs.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("Recover resumed %d jobs, want 1", resumed)
	}

	// Reconnect exactly where the consumer left off.
	s2 := openSSE(t, baseB+"/v1/jobs/"+v.ID+"/events", strconv.Itoa(lastID))
	frames := s2.collectUntil(t, func(f sseFrame) bool { return f.Event == "end" })
	for _, f := range frames {
		if !strings.HasPrefix(f.Event, "point.") || f.ID == "" {
			continue
		}
		var o jobs.PointOutcome
		if err := json.Unmarshal([]byte(f.Data), &o); err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[f.ID]; dup {
			t.Errorf("outcome id %s delivered twice (%s, then %s)", f.ID, prev, o.Point)
			continue
		}
		seen[f.ID] = o.Point
	}
	if frames[len(frames)-1].Event != "end" {
		t.Fatalf("resumed stream did not end cleanly: %+v", frames)
	}

	// Exactly once, across the crash: four outcomes, four distinct points,
	// dense ids.
	if len(seen) != 4 {
		t.Fatalf("consumer saw %d outcomes %v, want 4", len(seen), seen)
	}
	pointsSeen := map[string]bool{}
	for id, p := range seen {
		n, err := strconv.Atoi(id)
		if err != nil || n < 1 || n > 4 {
			t.Errorf("outcome id %q out of the dense 1..4 range", id)
		}
		if pointsSeen[p] {
			t.Errorf("point %s observed under two ids", p)
		}
		pointsSeen[p] = true
	}
	fin := waitJobDone(t, baseB, v.ID)
	if fin.State != jobs.StateDone {
		t.Fatalf("recovered job finished %s (error %q), want done", fin.State, fin.Error)
	}
}

// TestJobEventsLiveOrderTwoWorkers: with two point workers, outcomes are
// reserved in index order but published after separate checkpoint
// fsyncs, so a higher index can reach the bus first. A consumer following
// the job live must still receive every index 1..N exactly once, in
// order. The later rounds run warm (run-cache hits), where points finish
// in bursts and publication overtakes most often.
func TestJobEventsLiveOrderTwoWorkers(t *testing.T) {
	var gate atomic.Pointer[chan struct{}]
	_, base := jobsTestServer(t, serverOptions{
		jobsPoints: 2,
		jobsFault: func(jobID, pointID string, attempt int) error {
			<-*gate.Load()
			return nil
		},
	})
	const spec = `{"grid":{"variants":["conv","16-16"],"cache_sizes":[32,64,128,256,512,1024]}}`
	const points = 12
	for round := 0; round < 4; round++ {
		// Hold every point until the stream has attached, so all
		// outcomes travel the live path rather than the replay.
		release := make(chan struct{})
		gate.Store(&release)
		resp, body := postJSON(t, base+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			close(release)
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var v jobs.View
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			close(release)
			t.Fatal(err)
		}
		s := openSSE(t, base+"/v1/jobs/"+v.ID+"/events", "")
		first, err := s.next(nil)
		close(release)
		if err != nil || first.Event != "job.snapshot" {
			t.Fatalf("round %d: first frame %+v (%v), want job.snapshot", round, first, err)
		}
		frames := s.collectUntil(t, func(f sseFrame) bool { return f.Event == "end" })
		var ids []string
		for _, f := range frames {
			if strings.HasPrefix(f.Event, "point.") {
				ids = append(ids, f.ID)
			}
		}
		want := make([]string, points)
		for i := range want {
			want[i] = strconv.Itoa(i + 1)
		}
		if strings.Join(ids, ",") != strings.Join(want, ",") {
			t.Fatalf("round %d: live outcome ids %v, want 1..%d each exactly once", round, ids, points)
		}
		s.close()
	}
}
