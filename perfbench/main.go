// Command perfbench is the repository benchmark. It drives pipesim through
// its public entry points only — sweep.RunAll in process, and POST /v1/run
// and POST /v1/jobs plus the job's SSE stream on a pipesimd child process —
// checks every output against GOLDEN_catalog.json, and prints either the
// end-to-end metrics of an untraced run (-trace 0) or the per-layer metrics
// of a traced run (-trace 1). See README.md for the workloads and metrics.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload serve-mix --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// report: every raw sample per metric with its median and quartiles, and a
// stamp of the host and revision. The report is also written to
// <work>/results/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one invocation: the caller allows 180 s, and every
// child process must be stopped and waited for before that.
const runDeadline = 165 * time.Second

// maxProcs is the host budget the workloads are written for: two workers
// or client connections, and no more Go threads than that running code.
const maxProcs = 2

// env is what every workload gets: its inputs and the processes and
// directories to clean up.
type env struct {
	root      string // checkout root (holds GOLDEN_catalog.json)
	daemonBin string // pipesimd binary
	tmp       string // this run's scratch directory, removed at exit
	seed      int64
	seconds   int
	traced    bool
	procs     int // GOMAXPROCS for this process and its daemons

	cleanups []func()
}

// atExit registers fn to run, last registered first, when the run ends,
// however it ends.
func (e *env) atExit(fn func()) { e.cleanups = append(e.cleanups, fn) }

func (e *env) cleanup() {
	for i := len(e.cleanups) - 1; i >= 0; i-- {
		e.cleanups[i]()
	}
	e.cleanups = nil
}

// dir makes a fresh, empty directory under the run's scratch directory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.tmp, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

var workloads = map[string]func(context.Context, *env, *result) error{
	"catalog":   runCatalog,
	"serve-mix": runServeMix,
	"jobs-warm": runJobsWarm,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: catalog, serve-mix or jobs-warm")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds; sets the size of the fixed work")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: traced run with per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		daemon   = flag.String("daemon", "", "pipesimd binary")
		work     = flag.String("work", ".bench_build", "directory for scratch stores and reports")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *daemon == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload catalog|serve-mix|jobs-warm, -seconds >= 1, -trace 0|1 and -daemon")
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	e := &env{root: *root, daemonBin: *daemon, seed: *seed, seconds: *seconds, traced: *trace == 1, procs: procs}
	removeStaleRuns(filepath.Join(*work, "runs"))
	e.tmp = filepath.Join(*work, "runs", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e.atExit(func() { os.RemoveAll(e.tmp) })
	defer e.cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	res := &result{}
	start := time.Now()
	if err := fn(ctx, e, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if res.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *workload)
		return 1
	}
	res.set("failed_ratio", "1", float64(res.failed)/float64(res.attempted))

	want := spec.EndToEnd
	if e.traced {
		want = spec.PerLayer
	}
	rep, final, err := res.render(want, e.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep["workload"] = *workload
	rep["seed"] = *seed
	rep["seconds"] = *seconds
	rep["trace"] = *trace
	rep["elapsed_s"] = time.Since(start).Seconds()
	rep["stamp"] = stamp(*root, procs)
	repJSON, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	resDir := filepath.Join(*work, "results")
	if err := os.MkdirAll(resDir, 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", *workload, *seed, *trace, time.Now().UnixNano())
		if err := os.WriteFile(filepath.Join(resDir, name), append(repJSON, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
		}
	}
	finalJSON, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	fmt.Println(string(repJSON))
	fmt.Println(string(finalJSON))
	return 0
}

// removeStaleRuns deletes the scratch directories of earlier runs whose
// process no longer exists (a run killed outright cannot clean up after
// itself).
func removeStaleRuns(dir string) {
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		name := ent.Name()
		pid := name[strings.LastIndexByte(name, '-')+1:]
		if _, err := os.Stat("/proc/" + pid); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print, so the two never disagree.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json names no metrics")
	}
	return &s, nil
}

// stamp identifies where a result was measured, so results from different
// hosts or revisions are never compared by mistake.
func stamp(root string, procs int) map[string]any {
	rev, dirty := "none", false
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		rev = strings.TrimSpace(out)
		if st, err := gitOutput(root, "status", "--porcelain"); err == nil {
			dirty = strings.TrimSpace(st) != ""
		}
	}
	host, _ := os.Hostname()
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   procs,
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"git_revision": rev,
		"git_dirty":    dirty,
		"hostname":     host,
	}
}

// gitOutput runs git in root without looking above it for a repository.
func gitOutput(root string, args ...string) (string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", append([]string{"-C", abs}, args...)...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	return string(out), err
}
