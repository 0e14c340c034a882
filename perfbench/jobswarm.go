package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

const (
	// jobsRoundsPerSecond sizes the timed part: rounds of the seven grid
	// jobs per -seconds on the two-core reference host.
	jobsRoundsPerSecond = 15
	// jobsSetupReps is how many fresh stores the set-up builds; set-up time
	// is their median, and the timed part runs on the last one.
	jobsSetupReps = 3
	// jobsPointWorkers is the daemon's -jobs-points.
	jobsPointWorkers = 2
)

// gridSpec is the POST /v1/jobs body for one figure grid: every variant at
// every figure cache size under the figure's memory system.
func gridSpec(f figureGrid) []byte {
	b, _ := json.Marshal(map[string]any{"grid": map[string]any{
		"access_time": f.T,
		"bus_bytes":   f.Bus,
		"pipelined":   f.Pipelined,
	}})
	return b
}

// pointEvent is the payload of a per-job point.* SSE event.
type pointEvent struct {
	Index    int     `json:"index"`
	Point    string  `json:"point"`
	Outcome  string  `json:"outcome"`
	Cycles   uint64  `json:"cycles"`
	Valid    bool    `json:"valid"`
	ElapsedS float64 `json:"elapsed_s"`
}

// jobRun is one job as the client saw it: submit to the terminal SSE
// event.
type jobRun struct {
	grid    figureGrid
	id      string
	latency time.Duration
	state   string
	total   int
	points  []pointEvent
	spanDur time.Duration // traced pass: the daemon's job span
	err     error
}

// runJobsWarm submits the golden-backed figure grids as durable jobs to a
// fresh daemon whose store already holds every point, one job at a time,
// following each job's event stream to its end.
func runJobsWarm(ctx context.Context, e *env, res *result) error {
	g, err := loadGolden(e.root)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var order []figureGrid
	for r := 0; r < jobsRoundsPerSecond*e.seconds; r++ {
		round := append([]figureGrid(nil), figureGrids...)
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		order = append(order, round...)
	}

	pass, err := jobsPass(ctx, e, res, g, order, jobsSetupReps, false)
	if err != nil {
		return err
	}
	res.median("setup_s", "s", pass.setups)
	res.set("wall_s", "s", pass.wall)
	res.set("cpu_s", "s", pass.cpu)
	lat := [][]float64{pass.latencies}
	res.runPercentile("latency_p50_ms", "ms", lat, 50)
	res.runPercentile("latency_p90_ms", "ms", lat, 90)
	res.runPercentile("latency_p99_ms", "ms", lat, 99)
	res.set("peak_rss_mb", "MiB", pass.rss)
	pass.layers(res)
	if !e.traced {
		return nil
	}
	tpass, err := jobsPass(ctx, e, res, g, order, 1, true)
	if err != nil {
		return err
	}
	if tpass.points != pass.points || tpass.cycles != pass.cycles || tpass.outcomes != pass.outcomes {
		res.attempted++
		res.fail("traced pass counted %d points / %d cycles / %d outcomes, untraced %d / %d / %d",
			tpass.points, tpass.cycles, tpass.outcomes, pass.points, pass.cycles, pass.outcomes)
	}
	var spans []float64
	for _, j := range tpass.jobs {
		spans = append(spans, float64(j.spanDur.Microseconds())/1000)
	}
	res.median("jobs.span_ms", "ms", spans)
	res.set("trace.overhead_pct", "%", 100*(tpass.wall/pass.wall-1))
	return nil
}

// jobsResult is what one jobs-warm pass measured.
type jobsResult struct {
	setups     []float64
	wall, cpu  float64
	rss        float64
	latencies  []float64 // ms per job
	jobs       []jobRun
	ckptBytes  float64
	before     scrape
	after      scrape
	msBefore   memStats
	msAfter    memStats
	points     uint64 // valid points checked
	cycles     uint64 // Σ cycles of valid points
	outcomes   uint64 // point outcomes received over SSE
	pointBody  []float64
	perPointMS []float64
}

// jobsPass warms a store reps times (keeping the last), then runs the
// timed job sequence against a fresh daemon on it with an empty jobs dir.
func jobsPass(ctx context.Context, e *env, res *result, g *golden, order []figureGrid, reps int, traced bool) (*jobsResult, error) {
	out := &jobsResult{}
	var served *daemon
	var jobsDir string
	for i := 0; i < reps; i++ {
		if served != nil {
			if err := served.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d, dir, err := jobsSetup(ctx, e, res, g)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		served, jobsDir = d, dir
	}
	var err error
	if out.before, err = served.scrape(ctx); err != nil {
		return nil, err
	}
	if out.msBefore, err = served.memStats(ctx); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(served.pid())
	if err != nil {
		return nil, err
	}
	client := loadClient(2)
	defer client.CloseIdleConnections()
	t0 := time.Now()
	for _, f := range order {
		j := runJob(ctx, client, served, f)
		if traced && j.err == nil {
			j.spanDur, j.err = jobSpan(ctx, client, served, j.id)
		}
		out.jobs = append(out.jobs, j)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	out.wall = time.Since(t0).Seconds()
	cpu1, err := procCPU(served.pid())
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	out.rss = peakRSS(fmt.Sprint(served.pid()))
	if out.after, err = served.scrape(ctx); err != nil {
		return nil, err
	}
	if out.msAfter, err = served.memStats(ctx); err != nil {
		return nil, err
	}
	if err := served.stop(); err != nil {
		return nil, err
	}
	out.ckptBytes = dirBytes(jobsDir)
	for _, j := range out.jobs {
		out.latencies = append(out.latencies, float64(j.latency.Microseconds())/1000)
		out.check(res, g, j)
	}
	return out, nil
}

// jobsSetup runs each figure grid once as a job on a daemon with a fresh
// store, stops it, and starts the daemon that serves the timed part on the
// same store with an empty jobs directory.
func jobsSetup(ctx context.Context, e *env, res *result, g *golden) (*daemon, string, error) {
	store, err := e.dir("jobs-store")
	if err != nil {
		return nil, "", err
	}
	warmJobs, err := e.dir("jobs-warmup")
	if err != nil {
		return nil, "", err
	}
	args := []string{"-store-dir", store, "-parallel", fmt.Sprint(jobsPointWorkers), "-jobs-points", fmt.Sprint(jobsPointWorkers)}
	filler, err := startDaemon(ctx, e, "jobs-filler", append(args, "-jobs-dir", warmJobs)...)
	if err != nil {
		return nil, "", err
	}
	client := loadClient(2)
	defer client.CloseIdleConnections()
	var discard jobsResult
	for _, f := range figureGrids {
		discard.check(res, g, runJob(ctx, client, filler, f))
	}
	if err := filler.stop(); err != nil {
		return nil, "", err
	}
	jobsDir, err := e.dir("jobs-timed")
	if err != nil {
		return nil, "", err
	}
	d, err := startDaemon(ctx, e, "jobs-server", append(args, "-jobs-dir", jobsDir)...)
	return d, jobsDir, err
}

// runJob submits one grid job and follows GET /v1/jobs/{id}/events until
// the stream's end event.
func runJob(ctx context.Context, c *http.Client, d *daemon, f figureGrid) jobRun {
	j := jobRun{grid: f}
	t0 := time.Now()
	var view struct {
		ID          string `json:"id"`
		TotalPoints int    `json:"total_points"`
	}
	if j.err = postJSON(ctx, c, d.base+"/v1/jobs", nil, gridSpec(f), http.StatusAccepted, &view); j.err != nil {
		return j
	}
	j.id, j.total = view.ID, view.TotalPoints
	j.err = followJob(ctx, c, d, &j)
	j.latency = time.Since(t0)
	return j
}

// followJob reads the job's SSE stream: the opening snapshot, every point
// outcome, the job's end and the stream's own end event.
func followJob(ctx context.Context, c *http.Client, d *daemon, j *jobRun) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+j.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s events: status %d", j.id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("job %s events ended without an end event: %w", j.id, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		case line == "":
			if event == "" {
				continue
			}
			switch {
			case event == "job.snapshot" || event == "job.end":
				var s struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(data), &s); err != nil {
					return fmt.Errorf("job %s %s: %w", j.id, event, err)
				}
				j.state = s.State
			case strings.HasPrefix(event, "point."):
				var p pointEvent
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					return fmt.Errorf("job %s %s: %w", j.id, event, err)
				}
				if p.Index > 0 {
					j.points = append(j.points, p)
				}
			case event == "end":
				if !strings.Contains(data, "job_terminal") {
					return fmt.Errorf("job %s stream ended: %s", j.id, data)
				}
				return nil
			}
			event, data = "", ""
		}
	}
}

// jobSpan reads the daemon's trace of one job (GET /v1/trace/job-{id})
// and returns its root span's duration. The trace is filed when the job
// span ends, which can trail the stream's end, so it is retried briefly.
func jobSpan(ctx context.Context, c *http.Client, d *daemon, id string) (time.Duration, error) {
	var doc struct {
		DurUS int64 `json:"duration_us"`
	}
	var err error
	for try := 0; try < 50; try++ {
		if err = getJSON(ctx, c, d.base+"/v1/trace/job-"+id, &doc); err == nil {
			return time.Duration(doc.DurUS) * time.Microsecond, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("trace of job %s: %w", id, err)
}

// check judges one job: it must be done, its outcome indexes must be
// exactly 1..N, and every point must match the golden figure. Timings and
// counts of the outcomes that did arrive are kept either way.
func (p *jobsResult) check(res *result, g *golden, j jobRun) {
	res.attempted++
	if j.err != nil {
		res.fail("%s job: %v", j.grid.ID, j.err)
		return
	}
	var problem string
	seen := make(map[int]bool, len(j.points))
	body := 0.0
	for _, pt := range j.points {
		body += pt.ElapsedS * 1000
		p.pointBody = append(p.pointBody, pt.ElapsedS*1000)
		p.outcomes++
		variant, size, _ := strings.Cut(pt.Point, "/")
		x, err := strconv.Atoi(size)
		gp, ok := g.cycles(j.grid.ID, variant, x)
		switch {
		case pt.Index < 1 || pt.Index > j.total || seen[pt.Index]:
			problem = fmt.Sprintf("outcome index %d out of range or repeated", pt.Index)
		case pt.Outcome != "ok":
			problem = fmt.Sprintf("point %s outcome %s", pt.Point, pt.Outcome)
		case err != nil || !ok || gp.valid != pt.Valid || (gp.valid && gp.cycles != pt.Cycles):
			problem = fmt.Sprintf("point %s %d cycles (valid %v), golden %d (valid %v)",
				pt.Point, pt.Cycles, pt.Valid, gp.cycles, gp.valid)
		case pt.Valid:
			p.points++
			p.cycles += pt.Cycles
		}
		seen[pt.Index] = true
	}
	if j.total > 0 {
		lat := float64(j.latency.Microseconds()) / 1000
		p.perPointMS = append(p.perPointMS, (lat-body/jobsPointWorkers)/float64(j.total))
	}
	switch {
	case j.state != "done":
		res.fail("%s job %s: state %q", j.grid.ID, j.id, j.state)
	case problem != "":
		res.fail("%s job %s: %s", j.grid.ID, j.id, problem)
	case j.total == 0 || len(j.points) != j.total:
		res.fail("%s job %s: %d outcomes for %d points, missing indexes %v",
			j.grid.ID, j.id, len(j.points), j.total, missingIndexes(j))
	}
}

// layers records the per-layer metrics every jobs-warm pass measures.
func (p *jobsResult) layers(res *result) {
	b, a := p.before, p.after
	res.median("jobs.point_body_ms", "ms", p.pointBody)
	res.median("jobs.overhead_ms_per_point", "ms", p.perPointMS)
	res.set("jobs.checkpoint_bytes", "B", p.ckptBytes)
	res.set("jobs.sse_outcomes", "count", float64(p.outcomes))
	res.set("work.points", "count", float64(p.points))
	res.set("work.sim_cycles", "count", float64(p.cycles))
	res.set("runcache.hits", "count", delta(b, a, "pipesimd_runcache_hits_total"))
	res.set("runcache.misses", "count", delta(b, a, "pipesimd_runcache_misses_total"))
	res.set("runstore.hits", "count", delta(b, a, "pipesimd_runstore_hits_total"))
	res.set("runstore.writes", "count", delta(b, a, "pipesimd_runstore_writes_total"))
	res.set("eventbus.published", "count", delta(b, a, "pipesimd_eventbus_published_total"))
	res.set("eventbus.dropped", "count", delta(b, a, "pipesimd_eventbus_dropped_total"))
	rounds := len(figureGrids)
	var first, later []float64
	for i, l := range p.latencies {
		if i < rounds {
			first = append(first, l)
		} else {
			later = append(later, l)
		}
	}
	res.median("jobs.latency_ms.first_round", "ms", first)
	res.median("jobs.latency_ms.later_rounds", "ms", later)
	runtimeDelta(res, p.msBefore, p.msAfter)
}

// missingIndexes lists the outcome indexes 1..total the stream never
// delivered.
func missingIndexes(j jobRun) []int {
	seen := make(map[int]bool, len(j.points))
	for _, p := range j.points {
		seen[p.Index] = true
	}
	var out []int
	for i := 1; i <= j.total; i++ {
		if !seen[i] {
			out = append(out, i)
		}
	}
	return out
}
