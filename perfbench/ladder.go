package main

import (
	"context"
	"fmt"
	"time"

	"pipesim/internal/core"
	"pipesim/internal/obs"
	"pipesim/internal/sweep"
)

// rung is one step of the observer ladder: a way to configure a
// core.Simulator through its existing fields, from the bare core up to a
// probe-observed one.
type rung struct {
	name  string
	apply func(*core.Config)
	probe bool // attach a null probe (which turns skip-ahead off)
}

// ladder runs bare → +flight recorder (the default) → +introspection →
// +null probe, plus the stepped twins the skip-ahead and probe costs are
// measured against.
var ladder = []rung{
	{name: "bare", apply: func(c *core.Config) { c.FlightRecDepth = -1 }},
	{name: "flight", apply: func(c *core.Config) {}},
	{name: "introspect", apply: func(c *core.Config) { c.CacheIntrospect = true }},
	{name: "introspect_step", apply: func(c *core.Config) { c.CacheIntrospect, c.NoSkipAhead = true, true }},
	{name: "probe", apply: func(c *core.Config) { c.CacheIntrospect = true }, probe: true},
	{name: "flight_step", apply: func(c *core.Config) { c.NoSkipAhead = true }},
}

// rungTotals sums one rung over a grid.
type rungTotals struct {
	host    time.Duration
	cycles  uint64
	skipped uint64
}

// runLadder times every rung on every valid cell of the fig4a (T=1) and
// fig5b (T=6) grids, cell by cell with the rungs interleaved, so host drift
// during the ladder lands on every rung alike.
func runLadder(ctx context.Context, res *result) error {
	img, err := sweep.BenchmarkImage()
	if err != nil {
		return err
	}
	grids := []struct {
		name string
		mem  memSetting
	}{{"t1", memSetting{1, 4, false}}, {"t6", memSetting{6, 8, false}}}
	totals := make(map[string]*rungTotals)
	perGrid := make(map[string]*rungTotals)
	for _, r := range ladder {
		totals[r.name] = &rungTotals{}
	}
	for _, gr := range grids {
		perGrid[gr.name] = &rungTotals{}
		for _, variant := range sweep.GridVariants() {
			for _, size := range sweep.CacheSizes {
				base, valid, err := sweep.GridConfig(variant, size, gr.mem.T, gr.mem.Bus, gr.mem.Pipelined, true)
				if err != nil {
					return err
				}
				if !valid {
					continue
				}
				var cycles uint64
				for _, r := range ladder {
					if err := ctx.Err(); err != nil {
						return err
					}
					cfg := base
					r.apply(&cfg)
					sim, err := core.New(cfg, img)
					if err != nil {
						return fmt.Errorf("ladder %s %s/%d: %w", r.name, variant, size, err)
					}
					if r.probe {
						sim.SetProbe(obs.ProbeFunc(func(obs.Event) {}))
					}
					t0 := time.Now()
					st, err := sim.Run()
					d := time.Since(t0)
					res.attempted++
					if err != nil {
						res.fail("ladder %s %s/%d: %v", r.name, variant, size, err)
						continue
					}
					if cycles == 0 {
						cycles = st.Cycles
					} else if st.Cycles != cycles {
						res.fail("ladder %s %s/%d: %d cycles, other rungs %d", r.name, variant, size, st.Cycles, cycles)
					}
					t := totals[r.name]
					t.host += d
					t.cycles += st.Cycles
					t.skipped += sim.SkippedCycles()
					if r.name == "flight" {
						g := perGrid[gr.name]
						g.cycles += st.Cycles
						g.skipped += sim.SkippedCycles()
					}
				}
			}
		}
	}
	host := func(name string) float64 { return totals[name].host.Seconds() }
	pct := func(a, b string) float64 { return 100 * (host(a)/host(b) - 1) }
	def := totals["flight"]
	ticked := def.cycles - def.skipped
	res.set("core.ns_per_ticked_cycle", "ns", float64(def.host.Nanoseconds())/float64(ticked))
	res.set("core.fold_ratio.t1", "1", float64(perGrid["t1"].skipped)/float64(perGrid["t1"].cycles))
	res.set("core.fold_ratio.t6", "1", float64(perGrid["t6"].skipped)/float64(perGrid["t6"].cycles))
	res.set("core.skip_speedup", "1", host("flight_step")/host("flight"))
	res.set("core.ticked_cycles", "count", float64(ticked))
	res.set("core.folded_cycles", "count", float64(def.skipped))
	res.set("obs.flight_marginal_pct", "%", pct("flight", "bare"))
	res.set("cache.introspect_marginal_pct", "%", pct("introspect", "flight"))
	res.set("obs.probe_marginal_pct", "%", pct("probe", "introspect_step"))
	for _, r := range ladder {
		t := totals[r.name]
		res.set("ladder."+r.name+"_ns_per_cycle", "ns", float64(t.host.Nanoseconds())/float64(t.cycles))
	}
	return nil
}
