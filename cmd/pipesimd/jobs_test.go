package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesim/internal/jobs"
)

// jobsTestServer starts a daemon with the durable jobs subsystem enabled.
func jobsTestServer(t *testing.T, opts serverOptions) (*server, string) {
	t.Helper()
	if opts.runLimit == 0 {
		opts.runLimit = time.Minute
	}
	if opts.jobsDir == "" {
		opts.jobsDir = t.TempDir()
	}
	s, ts := newTestServerOpts(t, opts)
	return s, ts.URL
}

// smallJobSpec is a 2-point grid: quick enough to run for real in
// handler tests.
const smallJobSpec = `{"grid":{"variants":["conv"],"cache_sizes":[128,256]}}`

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb bytes.Buffer
	sb.ReadFrom(resp.Body)
	return resp, sb.String()
}

func waitJobDone(t *testing.T, base, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: %d %s", resp.StatusCode, body)
		}
		var v jobs.View
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("decoding job view: %v\n%s", err, body)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobs.View{}
}

func TestJobsSubmitPollDone(t *testing.T) {
	_, base := jobsTestServer(t, serverOptions{})

	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.TotalPoints != 2 {
		t.Fatalf("accepted view: %+v", v)
	}

	fin := waitJobDone(t, base, v.ID)
	if fin.State != jobs.StateDone || fin.CompletedPoints != 2 || len(fin.Results) != 2 {
		t.Fatalf("final view: %+v", fin)
	}
	for _, r := range fin.Results {
		if r.Key == "" || r.Cycles == 0 || !r.Valid {
			t.Errorf("result incomplete: %+v", r)
		}
	}

	// The job shows up in the listing.
	resp, body = get(t, base+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	var list struct {
		Jobs []jobs.View `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("listing: %+v", list)
	}
}

func TestJobsDisabledWithoutDir(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit without -jobs-dir: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "-jobs-dir") {
		t.Errorf("error should tell the operator the fix: %s", body)
	}
}

func TestJobsBadSpecRejected(t *testing.T) {
	_, base := jobsTestServer(t, serverOptions{})
	for _, body := range []string{
		`{`,
		`{}`,
		`{"experiments":["nope"]}`,
		`{"grid":{"variants":["nope"]}}`,
		`{"unknown_field":1}`,
	} {
		resp, out := postJSON(t, base+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: %d %s, want 400", body, resp.StatusCode, out)
		}
	}
}

// TestJobsAdmissionControl fills the admission queue (the executor is
// held inside a point by the fault gate) and asserts overflow gets 429 +
// Retry-After while the admitted jobs still complete.
func TestJobsAdmissionControl(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	_, base := jobsTestServer(t, serverOptions{
		jobsQueue: 2,
		jobsFault: func(jobID, pointID string, attempt int) error {
			once.Do(func() { close(reached) })
			<-release
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

	var admitted []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var v jobs.View
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, v.ID)
		if i == 0 {
			<-reached // first job is now held mid-point
		}
	}

	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprint(retryAfterQueueFull) {
		t.Errorf("Retry-After = %q, want %d", ra, retryAfterQueueFull)
	}
	if !strings.Contains(body, "queue full") {
		t.Errorf("429 body: %s", body)
	}

	// Shed load did not hurt admitted work: release the gate, both finish.
	close(release)
	for _, id := range admitted {
		if fin := waitJobDone(t, base, id); fin.State != jobs.StateDone {
			t.Errorf("admitted job %s finished %s (error %q), want done", id, fin.State, fin.Error)
		}
	}
}

func TestJobsCancelAndErrors(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	_, base := jobsTestServer(t, serverOptions{
		jobsFault: func(jobID, pointID string, attempt int) error {
			once.Do(func() { close(reached) })
			<-release
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
	<-reached

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	close(release)
	if fin := waitJobDone(t, base, v.ID); fin.State != jobs.StateCancelled {
		t.Errorf("state after cancel: %s", fin.State)
	}

	// Cancelling again conflicts; unknown IDs are 404 on both verbs.
	req, _ = http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel: %d, want 409", dresp.StatusCode)
	}
	if gresp, _ := get(t, base+"/v1/jobs/j-nope-1"); gresp.StatusCode != http.StatusNotFound {
		t.Errorf("get unknown job: %d, want 404", gresp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, base+"/v1/jobs/j-nope-1", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d, want 404", dresp.StatusCode)
	}
}

// TestDrainShedsWork is the shutdown-path test: once drain() runs (the
// SIGTERM path), new sweeps and job submissions are refused with 503 +
// Retry-After instead of being accepted and then killed by the drain
// deadline — while read-only endpoints keep serving.
func TestDrainShedsWork(t *testing.T) {
	s, base := jobsTestServer(t, serverOptions{})

	// Before drain both endpoints accept work.
	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-drain submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, base, v.ID)

	s.drain()

	resp, body = postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprint(retryAfterDraining) {
		t.Errorf("submit Retry-After = %q, want %d", ra, retryAfterDraining)
	}

	resp, body = get(t, base+"/v1/sweep?exp=fig5a")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep: %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprint(retryAfterDraining) {
		t.Errorf("sweep Retry-After = %q, want %d", ra, retryAfterDraining)
	}

	// Draining sheds new work but keeps serving status: the finished job
	// is still queryable for clients collecting their results.
	if gresp, _ := get(t, base+"/v1/jobs/"+v.ID); gresp.StatusCode != http.StatusOK {
		t.Errorf("job status during drain: %d, want 200", gresp.StatusCode)
	}
	if gresp, _ := get(t, base+"/readyz"); gresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", gresp.StatusCode)
	}
}

// TestJobsMetricsExported asserts the job metric families reach /metrics
// with the expected names and labels.
func TestJobsMetricsExported(t *testing.T) {
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

	_, metrics := get(t, base+"/metrics")
	for _, want := range []string{
		`pipesimd_jobs_submitted_total{outcome="accepted"} 1`,
		`pipesimd_jobs_finished_total{state="done"} 1`,
		`pipesimd_job_points_total{outcome="ok"} 2`,
		`pipesimd_jobs_queue_depth 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobTraceRetained asserts a finished job left a retrievable trace
// under its job-scoped request ID. It polls for the trace itself: the
// JobEnd hook ends the job's root span just after the job turns terminal,
// so a job that reads as done may not have filed its trace yet.
func TestJobTraceRetained(t *testing.T) {
	_, base := jobsTestServer(t, serverOptions{})
	resp, body := postJSON(t, base+"/v1/jobs", smallJobSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	tresp, tbody := getTrace(t, base, "job-"+v.ID)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("job trace: %d %s", tresp.StatusCode, tbody)
	}
	if !strings.Contains(tbody, "job:"+v.ID) {
		t.Errorf("trace body lacks the job root span: %s", tbody)
	}
	if fin := waitJobDone(t, base, v.ID); fin.State != jobs.StateDone {
		t.Errorf("traced job finished %s (%s)", fin.State, fin.Error)
	}
}
