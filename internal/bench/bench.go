// Package bench turns `go test -bench` output into a stable JSON baseline
// and compares two baselines for regressions.
//
// The JSON schema ("pipesim-bench/v1") shares its naming conventions with
// the sweep metrics schema ("pipesim-sweep/v1", internal/sweep): a schema
// tag, lower_snake field names, base units in the name (ns_per_op,
// bytes_per_op). Baselines live at the repo root as BENCH_<label>.json;
// scripts/bench.sh produces them and CI diffs against the committed seed.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pipesim/internal/version"
)

// Schema tags every baseline file so downstream tooling can reject
// incompatible layouts instead of misreading them.
const Schema = "pipesim-bench/v1"

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (BenchmarkSingleRun-8 → BenchmarkSingleRun) so baselines from
	// machines with different core counts still line up.
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp appear with -benchmem.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values by unit (for example
	// sim_cycles, cycles_per_l1_hit).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the machine-readable form of one benchmark run.
type Baseline struct {
	Schema string `json:"schema"`
	// Label names the baseline (seed, ci, dev...); it becomes the file
	// name: BENCH_<label>.json.
	Label      string      `json:"label"`
	GoVersion  string      `json:"go_version,omitempty"`
	Revision   string      `json:"revision,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Filter returns a copy of the baseline keeping only the benchmarks whose
// name matches re. CI gates use it to fail on a chosen benchmark set (the
// stable, high-signal ones) while the rest of a noisy 1-iteration smoke run
// stays advisory.
func (b *Baseline) Filter(re *regexp.Regexp) *Baseline {
	out := *b
	out.Benchmarks = nil
	for _, bm := range b.Benchmarks {
		if re.MatchString(bm.Name) {
			out.Benchmarks = append(out.Benchmarks, bm)
		}
	}
	return &out
}

// Parse reads `go test -bench` output and collects every benchmark line.
// Non-benchmark lines (package headers, PASS, ok) are ignored. Repeated
// runs of the same benchmark (-count) are averaged.
func Parse(r io.Reader) ([]Benchmark, error) {
	var (
		out   []Benchmark
		index = map[string]int{}
		runs  = map[string]int64{}
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if i, seen := index[b.Name]; seen {
			merge(&out[i], b, runs[b.Name])
			runs[b.Name]++
		} else {
			index[b.Name] = len(out)
			runs[b.Name] = 1
			out = append(out, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkSingleRun-8  16  67213562 ns/op  14234 B/op  12 allocs/op  646861 sim_cycles
//
// ok is false for lines that start with Benchmark but are not results
// (for example a bare name on its own line when output is wrapped).
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false, nil
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: name, Iterations: iters}
	// The rest is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bench %s: bad value %q in %q", name, fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		case "MB/s":
			// throughput is derived from ns/op; skip to keep the schema lean
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, true, nil
}

// merge folds a repeated run into the running average (n prior runs).
func merge(dst *Benchmark, b Benchmark, n int64) {
	f := float64(n)
	avg := func(old, new float64) float64 { return (old*f + new) / (f + 1) }
	dst.Iterations += b.Iterations
	dst.NsPerOp = avg(dst.NsPerOp, b.NsPerOp)
	dst.BytesPerOp = avg(dst.BytesPerOp, b.BytesPerOp)
	dst.AllocsPerOp = avg(dst.AllocsPerOp, b.AllocsPerOp)
	for unit, val := range b.Metrics {
		if dst.Metrics == nil {
			dst.Metrics = map[string]float64{}
		}
		dst.Metrics[unit] = avg(dst.Metrics[unit], val)
	}
}

// New builds a Baseline from parsed benchmarks, stamped with the build's
// version info.
func New(label string, benchmarks []Benchmark) *Baseline {
	v := version.Get()
	return &Baseline{
		Schema:     Schema,
		Label:      label,
		GoVersion:  v.GoVersion,
		Revision:   v.ShortRevision(),
		Benchmarks: benchmarks,
	}
}

// Write renders the baseline as indented JSON.
func (b *Baseline) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Read loads and validates a baseline file.
func Read(r io.Reader) (*Baseline, error) {
	var b Baseline
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("decoding baseline: %w", err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("baseline schema %q, want %q", b.Schema, Schema)
	}
	return &b, nil
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name       string  `json:"name"`
	OldNsPerOp float64 `json:"old_ns_per_op"`
	NewNsPerOp float64 `json:"new_ns_per_op"`
	// PctChange is the ns/op change in percent; positive means slower.
	PctChange  float64 `json:"pct_change"`
	Regression bool    `json:"regression"`
	// The footprint columns are reported beside ns/op but never gate:
	// zero means the baseline was recorded without -benchmem.
	OldBytesPerOp  float64 `json:"old_bytes_per_op,omitempty"`
	NewBytesPerOp  float64 `json:"new_bytes_per_op,omitempty"`
	OldAllocsPerOp float64 `json:"old_allocs_per_op,omitempty"`
	NewAllocsPerOp float64 `json:"new_allocs_per_op,omitempty"`
}

// Comparison is the full diff of two baselines.
type Comparison struct {
	Threshold float64 `json:"threshold_pct"`
	Deltas    []Delta `json:"deltas"`
	// OnlyOld / OnlyNew list benchmarks present in one baseline only
	// (renamed or deleted benchmarks are surfaced, never silently dropped).
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
}

// Regressions returns the deltas beyond the threshold.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Compare diffs two baselines: a benchmark regresses when its ns/op grew
// by more than thresholdPct percent.
func Compare(old, new *Baseline, thresholdPct float64) *Comparison {
	c := &Comparison{Threshold: thresholdPct}
	oldBy := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	newSeen := map[string]bool{}
	for _, nb := range new.Benchmarks {
		newSeen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			c.OnlyNew = append(c.OnlyNew, nb.Name)
			continue
		}
		d := Delta{Name: nb.Name, OldNsPerOp: ob.NsPerOp, NewNsPerOp: nb.NsPerOp,
			OldBytesPerOp: ob.BytesPerOp, NewBytesPerOp: nb.BytesPerOp,
			OldAllocsPerOp: ob.AllocsPerOp, NewAllocsPerOp: nb.AllocsPerOp}
		if ob.NsPerOp > 0 {
			d.PctChange = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		}
		d.Regression = d.PctChange > thresholdPct
		c.Deltas = append(c.Deltas, d)
	}
	for _, ob := range old.Benchmarks {
		if !newSeen[ob.Name] {
			c.OnlyOld = append(c.OnlyOld, ob.Name)
		}
	}
	return c
}

// Format renders the comparison as an aligned human-readable table: the
// gated ns/op columns, then old/new B/op and allocs/op for reference ("-"
// where a baseline carries no -benchmem figures).
func (c *Comparison) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %14s %14s %9s %12s %12s %10s %10s\n", "benchmark",
		"old ns/op", "new ns/op", "delta", "old B/op", "new B/op", "old allocs", "new allocs")
	for _, d := range c.Deltas {
		mark := ""
		if d.Regression {
			mark = "  REGRESSION"
		}
		fmt.Fprintf(&sb, "%-40s %14.0f %14.0f %+8.1f%% %12s %12s %10s %10s%s\n",
			d.Name, d.OldNsPerOp, d.NewNsPerOp, d.PctChange,
			memCol(d.OldBytesPerOp), memCol(d.NewBytesPerOp),
			memCol(d.OldAllocsPerOp), memCol(d.NewAllocsPerOp), mark)
	}
	for _, n := range c.OnlyOld {
		fmt.Fprintf(&sb, "%-40s (removed)\n", n)
	}
	for _, n := range c.OnlyNew {
		fmt.Fprintf(&sb, "%-40s (new)\n", n)
	}
	return sb.String()
}

// memCol formats one B/op or allocs/op figure, "-" when absent.
func memCol(v float64) string {
	if v == 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}
