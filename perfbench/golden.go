package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenFile is the committed catalog every workload checks against. It
// is only ever read.
const goldenFile = "GOLDEN_catalog.json"

// golden is GOLDEN_catalog.json: the raw document (for
// compare.CompareSweepJSON) and its points by experiment, series and x.
type golden struct {
	raw    []byte
	points map[string]map[string]map[int]goldenPoint
}

type goldenPoint struct {
	cycles uint64
	valid  bool
}

func loadGolden(root string) (*golden, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("reading golden catalog: %w", err)
	}
	var doc struct {
		Outcomes []struct {
			ID     string `json:"id"`
			Series []struct {
				Label  string `json:"label"`
				Points []struct {
					X      int    `json:"x"`
					Cycles uint64 `json:"cycles"`
					Valid  bool   `json:"valid"`
				} `json:"points"`
			} `json:"series"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parsing golden catalog: %w", err)
	}
	g := &golden{raw: raw, points: make(map[string]map[string]map[int]goldenPoint)}
	for _, o := range doc.Outcomes {
		series := make(map[string]map[int]goldenPoint)
		for _, s := range o.Series {
			pts := make(map[int]goldenPoint)
			for _, p := range s.Points {
				pts[p.X] = goldenPoint{cycles: p.Cycles, valid: p.Valid}
			}
			series[s.Label] = pts
		}
		g.points[o.ID] = series
	}
	return g, nil
}

// memSetting is the memory system of one figure: access time T, input bus
// width and pipelining.
type memSetting struct {
	T         int
	Bus       int
	Pipelined bool
}

// figureGrid is one golden-backed figure: a (T, bus, pipelined) grid over
// every machine variant and cache size.
type figureGrid struct {
	ID string
	memSetting
}

// figureGrids are the figure experiments whose points the daemon can
// reproduce as grid cells. fig6a repeats fig5b and is left out.
var figureGrids = []figureGrid{
	{"fig4a", memSetting{1, 4, false}},
	{"fig4b", memSetting{1, 8, false}},
	{"fig5a", memSetting{6, 4, false}},
	{"fig5b", memSetting{6, 8, false}},
	{"fig6b", memSetting{6, 8, true}},
	{"access2", memSetting{2, 4, false}},
	{"access3", memSetting{3, 4, false}},
}

// figureFor returns the golden figure simulated under m, if any.
func figureFor(m memSetting) (string, bool) {
	for _, f := range figureGrids {
		if f.memSetting == m {
			return f.ID, true
		}
	}
	return "", false
}

// cycles returns the golden cycle count of variant at cacheBytes under
// figure fig.
func (g *golden) cycles(fig, variant string, cacheBytes int) (goldenPoint, bool) {
	p, ok := g.points[fig][variant][cacheBytes]
	return p, ok
}
