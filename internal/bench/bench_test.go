package bench

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pipesim
cpu: some machine
BenchmarkSingleRun-8   	      16	  67213562 ns/op	   14234 B/op	     123 allocs/op	    646861 sim_cycles
BenchmarkProbeOverhead/no-probe-8         	      20	  52040000 ns/op
BenchmarkProbeOverhead/counting-probe-8   	      18	  55100000 ns/op
BenchmarkSweepE2E/table1-8                	     100	    110000 ns/op	  2048 B/op	      12 allocs/op
PASS
ok  	pipesim	12.345s
`

func TestParse(t *testing.T) {
	bs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(bs), bs)
	}
	byName := map[string]Benchmark{}
	for _, b := range bs {
		byName[b.Name] = b
	}
	sr, ok := byName["BenchmarkSingleRun"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", byName)
	}
	if sr.Iterations != 16 || sr.NsPerOp != 67213562 {
		t.Errorf("SingleRun = %+v", sr)
	}
	if sr.BytesPerOp != 14234 || sr.AllocsPerOp != 123 {
		t.Errorf("benchmem fields = %+v", sr)
	}
	if sr.Metrics["sim_cycles"] != 646861 {
		t.Errorf("custom metric = %+v", sr.Metrics)
	}
	if _, ok := byName["BenchmarkProbeOverhead/no-probe"]; !ok {
		t.Errorf("sub-benchmark names not preserved: %v", byName)
	}
	// Output is sorted by name for stable diffs.
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Name > bs[i].Name {
			t.Errorf("not sorted: %s > %s", bs[i-1].Name, bs[i].Name)
		}
	}
}

func TestParseAveragesRepeatedRuns(t *testing.T) {
	bs, err := Parse(strings.NewReader(`
BenchmarkX-4 10 100 ns/op 7 extra_metric
BenchmarkX-4 10 200 ns/op 9 extra_metric
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("got %d benchmarks, want 1 merged", len(bs))
	}
	if bs[0].NsPerOp != 150 || bs[0].Iterations != 20 || bs[0].Metrics["extra_metric"] != 8 {
		t.Errorf("merged = %+v", bs[0])
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	bs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	base := New("seed", bs)
	if base.Schema != Schema || base.Label != "seed" {
		t.Errorf("baseline header = %+v", base)
	}
	var buf strings.Builder
	if err := base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(bs) || got.Label != "seed" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := Read(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("Read accepted a foreign schema")
	}
}

// TestCompareFlagsRegression pins the acceptance criterion: an injected
// >10% ns/op regression is detected at a 10% threshold, while noise-level
// drift and improvements are not.
func TestCompareFlagsRegression(t *testing.T) {
	old := New("seed", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkC", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 5},
	})
	new := New("dev", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1150}, // +15%: regression
		{Name: "BenchmarkB", NsPerOp: 1050}, // +5%: inside threshold
		{Name: "BenchmarkC", NsPerOp: 800},  // improvement
		{Name: "BenchmarkFresh", NsPerOp: 9},
	})
	c := Compare(old, new, 10)
	regs := c.Regressions()
	if len(regs) != 1 || regs[0].Name != "BenchmarkA" {
		t.Fatalf("regressions = %+v, want exactly BenchmarkA", regs)
	}
	if regs[0].PctChange < 14.9 || regs[0].PctChange > 15.1 {
		t.Errorf("pct change = %v, want ~15", regs[0].PctChange)
	}
	if len(c.OnlyOld) != 1 || c.OnlyOld[0] != "BenchmarkGone" {
		t.Errorf("only_old = %v", c.OnlyOld)
	}
	if len(c.OnlyNew) != 1 || c.OnlyNew[0] != "BenchmarkFresh" {
		t.Errorf("only_new = %v", c.OnlyNew)
	}
	table := c.Format()
	if !strings.Contains(table, "REGRESSION") || !strings.Contains(table, "BenchmarkA") {
		t.Errorf("table missing regression marker:\n%s", table)
	}

	// At a looser threshold the same diff is clean.
	if regs := Compare(old, new, 20).Regressions(); len(regs) != 0 {
		t.Errorf("regressions at 20%% = %+v, want none", regs)
	}
}

// TestFormatFootprintColumns: the comparison table shows old and new B/op
// and allocs/op beside ns/op, "-" where a baseline has no -benchmem
// figures, and the footprint never marks a regression.
func TestFormatFootprintColumns(t *testing.T) {
	old := New("old", []Benchmark{
		{Name: "BenchmarkSingleRun", NsPerOp: 1000, BytesPerOp: 1206717, AllocsPerOp: 7229},
		{Name: "BenchmarkBare", NsPerOp: 1000},
	})
	new := New("new", []Benchmark{
		{Name: "BenchmarkSingleRun", NsPerOp: 1000, BytesPerOp: 87417, AllocsPerOp: 77},
		{Name: "BenchmarkBare", NsPerOp: 1000, BytesPerOp: 9e6, AllocsPerOp: 5e4},
	})
	c := Compare(old, new, 10)
	if regs := c.Regressions(); len(regs) != 0 {
		t.Errorf("footprint growth gated as a regression: %+v", regs)
	}
	lines := strings.Split(strings.TrimSpace(c.Format()), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want header + 2:\n%s", len(lines), c.Format())
	}
	for _, col := range []string{"old B/op", "new B/op", "old allocs", "new allocs"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("header lacks %q: %s", col, lines[0])
		}
	}
	rows := map[string][]string{}
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		rows[f[0]] = f
	}
	// name, old ns, new ns, delta, old B, new B, old allocs, new allocs
	if got := rows["BenchmarkSingleRun"][4:8]; strings.Join(got, " ") != "1206717 87417 7229 77" {
		t.Errorf("SingleRun footprint columns = %v", got)
	}
	if got := rows["BenchmarkBare"][4:8]; strings.Join(got, " ") != "- 9000000 - 50000" {
		t.Errorf("Bare footprint columns = %v", got)
	}
}
