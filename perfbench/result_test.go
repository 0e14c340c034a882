package main

import "testing"

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the definition the benchmark's
// run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{9.4, 9.4, 8.1, 7.4, 11.2, 8.2, 8.5}, 8.1, 9.4},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.data)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 1500; i++ {
		s = append(s, float64(i))
	}
	for _, tc := range []struct {
		p      float64
		v      float64
		beyond int
	}{{50, 750, 750}, {90, 1350, 150}, {99, 1485, 15}} {
		v, beyond := nearestRank(s, tc.p)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("p%v = %v with %d beyond; want %v with %d", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
