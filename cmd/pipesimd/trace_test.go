package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesim"
	"pipesim/internal/runcache"
	"pipesim/internal/tracing"
)

// postWithHeaders is post with extra request headers.
func postWithHeaders(t *testing.T, url, body string, hdrs map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// getTrace polls /v1/trace/{id} for up to 30s: a trace is filed when its
// root span ends — for a request, in the middleware's deferred End, which
// can land a moment after the response; for a job, in the JobEnd hook,
// just after the job turns terminal.
func getTrace(t *testing.T, base, id string) (resp *http.Response, body string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, base+"/v1/trace/"+id)
		if resp.StatusCode == http.StatusOK || time.Now().After(deadline) {
			return resp, body
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestClientRequestIDHonored(t *testing.T) {
	_, ts := newTestServer(t)

	resp, _ := postWithHeaders(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`,
		map[string]string{"X-Request-Id": "client-id-42"})
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-42" {
		t.Errorf("sane client ID not honored: got %q", got)
	}

	// Hostile or oversized IDs are replaced with a generated one.
	for name, bad := range map[string]string{
		"slash":    "../../etc",
		"space":    "two words",
		"oversize": strings.Repeat("a", 65),
		"header":   "x:injection",
	} {
		resp, _ := postWithHeaders(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`,
			map[string]string{"X-Request-Id": bad})
		got := resp.Header.Get("X-Request-Id")
		if got == bad || got == "" {
			t.Errorf("%s: bad client ID %q not replaced (got %q)", name, bad, got)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	traceparent := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp, body := postWithHeaders(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`,
		map[string]string{"X-Request-Id": "traced-run-1", "traceparent": traceparent})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d\n%s", resp.StatusCode, body)
	}

	resp, body = getTrace(t, ts.URL, "traced-run-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d\n%s", resp.StatusCode, body)
	}
	traceBody := body
	saveFailureArtifact(t, "trace-endpoint.json", func() []byte { return []byte(traceBody) })
	var td tracing.TraceData
	if err := json.Unmarshal([]byte(body), &td); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, body)
	}
	if td.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace did not join the caller's trace: %s", td.TraceID)
	}
	if !td.RemoteParent {
		t.Error("remote_parent not set for a traceparent-carrying request")
	}
	if td.RequestID != "traced-run-1" {
		t.Errorf("request ID = %q", td.RequestID)
	}

	// The request must decompose into the expected stages, each contained
	// in the root span's duration.
	var root *tracing.SpanData
	for i := range td.Spans {
		if td.Spans[i].SpanID == td.RootSpanID {
			root = &td.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("trace has no root span")
	}
	stages := map[string]bool{}
	for i := range td.Spans {
		s := &td.Spans[i]
		if s.SpanID == td.RootSpanID {
			continue
		}
		stages[s.Name] = true
		if s.StartUS+s.DurUS > root.StartUS+td.DurUS+1000 {
			t.Errorf("span %s (%d+%dus) extends past the trace (%dus)", s.Name, s.StartUS, s.DurUS, td.DurUS)
		}
	}
	if root.ParentID != "00f067aa0ba902b7" {
		t.Errorf("root span parent = %q, want the caller's span", root.ParentID)
	}
	for _, want := range []string{"decode", "build", "run"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, stages)
		}
	}
	if td.DurUS != root.DurUS {
		t.Errorf("trace duration %dus != root span duration %dus", td.DurUS, root.DurUS)
	}

	// Chrome export of the same trace.
	resp, body = get(t, ts.URL+"/v1/trace/traced-run-1?format=chrome")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("chrome trace = %d\n%s", resp.StatusCode, body)
	}
	if resp, body := get(t, ts.URL+"/v1/trace/traced-run-1?format=svg"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format = %d\n%s", resp.StatusCode, body)
	}

	// Unknown request ID.
	resp, body = get(t, ts.URL+"/v1/trace/no-such-request")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404\n%s", resp.StatusCode, body)
	}
	if ae := decodeErr(t, body); ae.Kind != errKindNotFound {
		t.Errorf("kind = %q, want %q", ae.Kind, errKindNotFound)
	}
}

func TestStageMetricsFromSpans(t *testing.T) {
	s, ts := newTestServer(t)
	post(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`)
	snap := s.metrics.reg.Snapshot()
	for _, stage := range []string{"decode", "build", "run"} {
		if got := snap[`pipesimd_stage_seconds_count{stage="`+stage+`"}`]; got != 1 {
			t.Errorf("stage_seconds{stage=%q} count = %v, want 1", stage, got)
		}
	}
}

func TestDeadlockErrorCarriesRecentEvents(t *testing.T) {
	_, ts := newTestServer(t)

	resp, body := postWithHeaders(t, ts.URL+"/v1/run",
		`{"asm": `+quote(deadlockAsm)+`, "config": {"WatchdogCycles": 2000}}`,
		map[string]string{"X-Request-Id": "wedged-1"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("deadlock run = %d\n%s", resp.StatusCode, body)
	}
	deadlockBody := body
	saveFailureArtifact(t, "deadlock-error.json", func() []byte { return []byte(deadlockBody) })
	ae := decodeErr(t, body)
	if ae.Kind != errKindDeadlock {
		t.Fatalf("kind = %q (%s)", ae.Kind, ae.Error)
	}
	if ae.RequestID != "wedged-1" {
		t.Errorf("error body request_id = %q, want wedged-1", ae.RequestID)
	}
	if len(ae.RecentEvents) == 0 {
		t.Fatal("deadlock error body carries no flight-recorder events")
	}
	sawRetire := false
	for _, e := range ae.RecentEvents {
		if e.Kind == "retire" {
			sawRetire = true
		}
	}
	if !sawRetire {
		t.Errorf("recent events have no retirements: %+v", ae.RecentEvents)
	}

	// The same post-mortem is archived for operators.
	resp, body = get(t, ts.URL+"/debug/flightrecorder")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder = %d", resp.StatusCode)
	}
	var entries []flightEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("flightrecorder not JSON: %v\n%s", err, body)
	}
	if len(entries) != 1 {
		t.Fatalf("archived %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.RequestID != "wedged-1" || e.Kind != errKindDeadlock || len(e.Events) == 0 {
		t.Errorf("archived entry wrong: %+v", e)
	}
}

func TestRunDeadlineKind(t *testing.T) {
	// Only a simulation runs under the deadline (a cached result is
	// answered inline), so the run cache must not hold the posted config.
	runcache.Default.SetStore(nil)
	runcache.Default.Reset()
	s, err := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), serverOptions{
		runLimit: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(func() { pipesim.SetRunHook(nil) })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/v1/run", `{}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("deadline run = %d\n%s", resp.StatusCode, body)
	}
	ae := decodeErr(t, body)
	if ae.Kind != errKindDeadline {
		t.Fatalf("kind = %q, want %q (%s)", ae.Kind, errKindDeadline, ae.Error)
	}
	if !strings.Contains(ae.Error, "-run-timeout") {
		t.Errorf("deadline error does not name the flag: %q", ae.Error)
	}
	// The deadline is its own taxonomy bucket, distinct from the sweep
	// runner's per-experiment timeout.
	snap := s.metrics.reg.Snapshot()
	if got := snap[`pipesimd_errors_total{kind="deadline"}`]; got != 1 {
		t.Errorf("deadline errors = %v, want 1", got)
	}
	if got := snap[`pipesimd_errors_total{kind="timeout"}`]; got != 0 {
		t.Errorf("timeout errors = %v, want 0", got)
	}
}

func TestSlowRequestLogging(t *testing.T) {
	var sb strings.Builder
	logMu := &syncWriter{w: &sb}
	s, err := newServer(slog.New(slog.NewTextHandler(logMu, nil)), serverOptions{
		runLimit:  time.Minute,
		slowLimit: time.Nanosecond, // everything is slow
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(func() { pipesim.SetRunHook(nil) })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	post(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`)
	// The slow-request line is written by the middleware's deferred hook;
	// poll briefly for it.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(logMu.String(), "slow request") {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	logged := logMu.String()
	if !strings.Contains(logged, "slow request") {
		t.Fatalf("no slow-request line logged:\n%s", logged)
	}
	if !strings.Contains(logged, "run=") {
		t.Errorf("slow-request line has no span breakdown:\n%s", logged)
	}
}

// syncWriter serializes writes between the handler goroutine and the test.
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.String()
}

// saveFailureArtifact writes a post-mortem file when the test fails and
// PIPESIM_ARTIFACT_DIR is set, so CI uploads the flight-recorder / trace
// JSON the failing assertion was looking at.
func saveFailureArtifact(t *testing.T, name string, body func() []byte) {
	t.Cleanup(func() {
		dir := os.Getenv("PIPESIM_ARTIFACT_DIR")
		if dir == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body(), 0o644); err != nil {
			t.Logf("artifact %s: %v", name, err)
			return
		}
		t.Logf("post-mortem artifact written to %s", path)
	})
}
