package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one pipesimd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	log    string
}

// readyTimeout bounds daemon start-up: image warm-up, store scan and job
// recovery all happen before /readyz answers.
const readyTimeout = 60 * time.Second

// startDaemon launches pipesimd with args plus a free loopback address and
// waits until /readyz answers. The process is registered for stopping at
// exit, so no daemon outlives the run even when the run fails. A port
// taken between probing and listening is retried on another port.
func startDaemon(ctx context.Context, e *env, name string, args ...string) (*daemon, error) {
	var err error
	for try := 0; try < 3; try++ {
		var d *daemon
		if d, err = startDaemonOnce(ctx, e, name, args); err == nil {
			return d, nil
		}
		if !strings.Contains(err.Error(), "address already in use") {
			return nil, err
		}
	}
	return nil, err
}

func startDaemonOnce(ctx context.Context, e *env, name string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(e.tmp, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.daemonBin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", e.procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process be killed outright, the kernel kills the daemon
	// too, so none outlives the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logPath}
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	e.atExit(func() { d.kill() })
	deadline := time.Now().Add(readyTimeout)
	for {
		if ok, _ := d.ready(ctx); ok {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited before ready: %s", name, tail(logPath))
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready after %s", name, readyTimeout)
		}
	}
}

func (d *daemon) ready(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// probeClient serves readiness polls and scrapes, which must not take
// the load clients' connections.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// stopTimeout bounds a graceful drain before the process is killed.
const stopTimeout = 20 * time.Second

// stop sends SIGTERM and waits for the daemon to exit, killing it if the
// drain overruns. A daemon that had to be killed is an error.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("daemon exited on its own: %s", tail(d.log))
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if code := d.cmd.ProcessState.ExitCode(); code != 0 {
			return fmt.Errorf("daemon exit code %d: %s", code, tail(d.log))
		}
		return nil
	case <-time.After(stopTimeout):
		d.kill()
		return fmt.Errorf("daemon did not drain within %s", stopTimeout)
	}
}

// kill stops the process unconditionally and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the last lines of a daemon log for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// loadClient returns an HTTP client holding at most conns connections to
// the daemon.
func loadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// postJSON sends body and decodes a JSON reply into out when the status is
// want; any other status is returned as an error with the reply body.
func postJSON(ctx context.Context, c *http.Client, url string, hdr map[string]string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return doJSON(c, req, want, out)
}

func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(c, req, http.StatusOK, out)
}

func doJSON(c *http.Client, req *http.Request, want int, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// scrape is one read of the daemon's /metrics, keyed by the series as
// printed ("name" or `name{label="v"}`).
type scrape map[string]float64

func (d *daemon) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 { // exemplar
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s[line[:sp]] = v
	}
	return s, sc.Err()
}

// delta is after − before for one series.
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }

// stageMeanMS is the mean duration in ms of one pipesimd_stage_seconds
// stage between two scrapes (0 when the stage never ran).
func stageMeanMS(before, after scrape, stage string) float64 {
	n := delta(before, after, `pipesimd_stage_seconds_count{stage="`+stage+`"}`)
	if n == 0 {
		return 0
	}
	return 1000 * delta(before, after, `pipesimd_stage_seconds_sum{stage="`+stage+`"}`) / n
}

// procCPU is the user+system CPU seconds of pid, from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// peakRSS is the peak resident set (VmHWM) of pid in MiB.
func peakRSS(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	m := regexp.MustCompile(`VmHWM:\s+(\d+) kB`).FindSubmatch(b)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}

func peakRSSSelf() float64 { return peakRSS("self") }

// memStats is the runtime.MemStats subset the daemon's heap profile
// prints.
type memStats struct {
	numGC      float64
	totalAlloc float64
	pauseNs    []float64 // circular buffer of the last 256 pauses
}

var memStatLine = regexp.MustCompile(`^# (NumGC|TotalAlloc|PauseNs) = (.*)$`)

// memStats reads runtime.MemStats from /debug/pprof/heap?debug=1.
func (d *daemon) memStats(ctx context.Context) (memStats, error) {
	var ms memStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return ms, err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return ms, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		m := memStatLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		switch m[1] {
		case "NumGC":
			ms.numGC, _ = strconv.ParseFloat(m[2], 64)
		case "TotalAlloc":
			ms.totalAlloc, _ = strconv.ParseFloat(m[2], 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(m[2], "[]")) {
				v, _ := strconv.ParseFloat(f, 64)
				ms.pauseNs = append(ms.pauseNs, v)
			}
		}
	}
	return ms, sc.Err()
}

// runtimeDelta reports the daemon's GC cycles, GC pause time and
// allocation between two reads. Pauses come from the runtime's ring of the
// last 256: when more collections ran, their total is the ring's mean
// pause times the collection count.
func runtimeDelta(res *result, a, b memStats) {
	gcs := int(b.numGC - a.numGC)
	res.set("runtime.gc_cycles", "count", float64(gcs))
	res.set("runtime.alloc_mb", "MiB", (b.totalAlloc-a.totalAlloc)/(1<<20))
	pause, seen := 0.0, 0
	if n := len(b.pauseNs); n > 0 {
		for gc := int(b.numGC); gc > int(a.numGC) && seen < n; gc-- {
			pause += b.pauseNs[(gc+n-1)%n]
			seen++
		}
	}
	if seen > 0 {
		pause *= float64(gcs) / float64(seen)
	}
	res.set("runtime.gc_pause_ms", "ms", pause/1e6)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err == nil && de.Type().IsRegular() {
			if fi, err := de.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n)
}
