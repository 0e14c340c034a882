package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one measured quantity: its reported value and every raw
// sample behind it (a single-valued metric has one sample).
type metric struct {
	unit    string
	value   float64
	samples []float64
	// beyond is how many samples lie above a percentile value; -1 when the
	// value is not a percentile.
	beyond int
	perRun []float64 // a percentile's value in each run, when runs repeat
}

// result collects what a workload measured and what its output checks
// found.
type result struct {
	attempted int // operations whose output was checked
	failed    int // operations that failed or returned wrong output
	notes     []string
	metrics   map[string]*metric
}

// maxNotes bounds the failure descriptions kept for the report.
const maxNotes = 20

// fail records one failed or wrong operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) put(name string, m *metric) {
	if r.metrics == nil {
		r.metrics = make(map[string]*metric)
	}
	r.metrics[name] = m
}

// set records a single-valued metric.
func (r *result) set(name, unit string, v float64) {
	r.put(name, &metric{unit: unit, value: v, samples: []float64{v}, beyond: -1})
}

// median records the median of samples.
func (r *result) median(name, unit string, samples []float64) {
	r.put(name, &metric{unit: unit, value: quantile(samples, 0.5), samples: samples, beyond: -1})
}

// runPercentile records the median over repeated runs of the same work of
// each run's nearest-rank p-th percentile. Every raw sample is kept, and
// the per-run percentiles beside them; beyond is the fewest samples any
// run had above its percentile.
func (r *result) runPercentile(name, unit string, runs [][]float64, p float64) {
	m := &metric{unit: unit, beyond: -1}
	for _, samples := range runs {
		v, beyond := nearestRank(samples, p)
		m.perRun = append(m.perRun, v)
		m.samples = append(m.samples, samples...)
		if m.beyond < 0 || beyond < m.beyond {
			m.beyond = beyond
		}
	}
	m.value = quantile(m.perRun, 0.5)
	r.put(name, m)
}

// nearestRank returns the smallest sample with at least p percent of the
// samples at or below it, and the number of samples above that rank.
func nearestRank(samples []float64, p float64) (float64, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := sorted(samples)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles follows Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), the definition the benchmark's spread is judged by.
func quartiles(samples []float64) (q1, q3 float64) {
	s := sorted(samples)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// metricOut is the final line's per-metric object.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// render builds the full report and the final line. The final line holds
// exactly the metrics in want. A metric the workload did not measure is an
// error, unless idleOK: a per-layer metric of a layer the workload never
// enters reads 0 and is listed in the report as not exercised.
func (r *result) render(want []metricSpec, idleOK bool) (map[string]any, finalLine, error) {
	final := finalLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(want)),
	}
	var idle []string
	for _, w := range want {
		m, ok := r.metrics[w.Name]
		if !ok && idleOK {
			idle = append(idle, w.Name)
			final.Metrics[w.Name] = metricOut{Value: 0, Unit: w.Unit}
			continue
		}
		if !ok {
			return nil, final, fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.unit != w.Unit {
			return nil, final, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.unit, w.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, final, fmt.Errorf("metric %s is %v", w.Name, m.value)
		}
		final.Metrics[w.Name] = metricOut{Value: m.value, Unit: m.unit}
	}
	all := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		q1, q3 := quartiles(m.samples)
		entry := map[string]any{
			"unit":    m.unit,
			"value":   m.value,
			"n":       len(m.samples),
			"median":  quantile(m.samples, 0.5),
			"q1":      q1,
			"q3":      q3,
			"samples": m.samples,
		}
		if m.beyond >= 0 {
			entry["samples_beyond"] = m.beyond
			entry["per_run"] = m.perRun
		}
		all[name] = entry
	}
	rep := map[string]any{
		"schema":    "perfbench-report/v1",
		"correct":   final.Correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"failures":  r.notes,
		"metrics":   all,
	}
	if len(idle) > 0 {
		rep["not_exercised"] = idle
	}
	return rep, final, nil
}
