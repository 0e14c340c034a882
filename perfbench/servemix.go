package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pipesim/internal/sweep"
)

// The serve-mix config space: conv plus the four Table II arrangements ×
// cache 32–512 B × T ∈ {1,2,3,6} × bus {4,8} × pipelined {off,on}.
var (
	mixSizes = []int{32, 64, 128, 256, 512}
	mixTs    = []int{1, 2, 3, 6}
	mixBuses = []int{4, 8}
)

const (
	// mixStored is how many configs the set-up daemon simulates into the
	// store; the rest of the space is never seen before the timed part.
	mixStored = 120
	// mixTimedRequests is one episode's timed request count: about ten seconds
	// on the two-core reference host.
	mixTimedRequests = 1500
	// mixEpisodeSeconds is how many -seconds buy one episode: a set-up on
	// a fresh store followed by the timed requests.
	mixEpisodeSeconds = 10
	// mixClients is the number of closed-loop clients.
	mixClients = 2
	// Shares of the timed requests: never-seen configs (simulated, then
	// written through to the store) and stored configs (a store hit first,
	// then memory). The rest repeat configs already requested in this run.
	mixNewShare    = 0.25
	mixStoredShare = 1.0 / 3
)

// mixConfig is one point of the serve-mix space.
type mixConfig struct {
	Variant string
	Cache   int
	memSetting
}

func (c mixConfig) String() string {
	return fmt.Sprintf("%s/%d T=%d bus=%d pipelined=%v", c.Variant, c.Cache, c.T, c.Bus, c.Pipelined)
}

// body is the POST /v1/run request for c: a Table II base (or the
// conventional cache) with the geometry and memory system overlaid.
func (c mixConfig) body() []byte {
	overlay := map[string]any{
		"CacheBytes":      c.Cache,
		"MemAccessTime":   c.T,
		"BusWidthBytes":   c.Bus,
		"PipelinedMemory": c.Pipelined,
	}
	req := map[string]any{"config": overlay}
	if c.Variant == "conv" {
		overlay["Strategy"] = "conventional"
		overlay["LineBytes"] = sweep.ConvLineBytes
	} else {
		req["table_ii"] = c.Variant
	}
	b, _ := json.Marshal(req)
	return b
}

func mixSpace() []mixConfig {
	var out []mixConfig
	for _, v := range sweep.GridVariants() {
		for _, size := range mixSizes {
			for _, t := range mixTs {
				for _, bus := range mixBuses {
					for _, p := range []bool{false, true} {
						out = append(out, mixConfig{v, size, memSetting{t, bus, p}})
					}
				}
			}
		}
	}
	return out
}

// mixPlan is the seeded input of one serve-mix run.
type mixPlan struct {
	stored []mixConfig // simulated into the store during set-up
	timed  []mixConfig // the timed request sequence
}

func newMixPlan(seed int64, requests int) mixPlan {
	rng := rand.New(rand.NewSource(seed))
	space := mixSpace()
	rng.Shuffle(len(space), func(i, j int) { space[i], space[j] = space[j], space[i] })
	p := mixPlan{stored: space[:mixStored]}
	fresh := space[mixStored:]
	var seen []mixConfig
	seenSet := make(map[mixConfig]bool)
	for len(p.timed) < requests {
		var c mixConfig
		r := rng.Float64()
		switch {
		case r < mixNewShare && len(fresh) > 0:
			c, fresh = fresh[0], fresh[1:]
		case r < mixNewShare+mixStoredShare || len(seen) == 0:
			c = p.stored[rng.Intn(len(p.stored))]
		default:
			c = seen[rng.Intn(len(seen))]
		}
		if !seenSet[c] {
			seenSet[c] = true
			seen = append(seen, c)
		}
		p.timed = append(p.timed, c)
	}
	return p
}

// runReply is the part of the POST /v1/run reply the checks read.
type runReply struct {
	Key    string `json:"key"`
	Source string `json:"source"`
	Result struct {
		Cycles         uint64
		Instructions   uint64
		CacheHits      uint64
		CacheMisses    uint64
		DemandFetches  uint64
		Prefetches     uint64
		WordsDelivered uint64
		InputBusCycles uint64
	} `json:"result"`
}

// mixOutcome is one request as the client saw it.
type mixOutcome struct {
	cfg     mixConfig
	latency time.Duration
	reply   runReply
	err     error
	trace   *traceSummary // traced episode only
}

// mixChecker holds what earlier responses established: every key's cycles
// and every config's key, across set-up and timed requests alike.
type mixChecker struct {
	g        *golden
	cycles   map[string]uint64
	keys     map[mixConfig]string
	counters workCounters
}

func (m *mixChecker) check(res *result, o mixOutcome) bool {
	res.attempted++
	if o.err != nil {
		res.fail("%s: %v", o.cfg, o.err)
		return false
	}
	r := o.reply
	switch r.Source {
	case "simulated", "memory", "store":
	default:
		res.fail("%s: unknown source %q", o.cfg, r.Source)
		return false
	}
	if r.Key == "" || r.Result.Cycles == 0 {
		res.fail("%s: reply without key or cycles", o.cfg)
		return false
	}
	if k, ok := m.keys[o.cfg]; ok && k != r.Key {
		res.fail("%s: key %s, earlier %s", o.cfg, r.Key, k)
		return false
	}
	m.keys[o.cfg] = r.Key
	if c, ok := m.cycles[r.Key]; ok && c != r.Result.Cycles {
		res.fail("%s (%s): %d cycles, earlier %d", o.cfg, r.Source, r.Result.Cycles, c)
		return false
	}
	m.cycles[r.Key] = r.Result.Cycles
	if fig, ok := figureFor(o.cfg.memSetting); ok {
		gp, ok := m.g.cycles(fig, o.cfg.Variant, o.cfg.Cache)
		if !ok || !gp.valid || gp.cycles != r.Result.Cycles {
			res.fail("%s: %d cycles, golden %s has %d", o.cfg, r.Result.Cycles, fig, gp.cycles)
			return false
		}
	}
	return true
}

// count adds a checked reply to the deterministic work counters.
func (m *mixChecker) count(r runReply) {
	c := &m.counters
	c.points++
	c.cycles += r.Result.Cycles
	c.instructions += r.Result.Instructions
	c.cacheHits += r.Result.CacheHits
	c.cacheMisses += r.Result.CacheMisses
	c.prefetches += r.Result.Prefetches
	c.demandFetches += r.Result.DemandFetches
	c.wordsDelivered += r.Result.WordsDelivered
	c.inputBusCycles += r.Result.InputBusCycles
}

// runServeMix is the restarted-daemon run stream: a daemon fills a store
// and is stopped, and a fresh daemon on the same store serves a seeded
// mix of never-seen, stored and repeated configs to two closed-loop
// clients. Each episode repeats all of it on a fresh store; metrics are
// medians over episodes.
func runServeMix(ctx context.Context, e *env, res *result) error {
	g, err := loadGolden(e.root)
	if err != nil {
		return err
	}
	plan := newMixPlan(e.seed, mixTimedRequests)
	chk := &mixChecker{g: g, cycles: make(map[string]uint64), keys: make(map[mixConfig]string)}
	episodes := (e.seconds + mixEpisodeSeconds/2) / mixEpisodeSeconds
	if episodes < 1 {
		episodes = 1
	}
	var eps []*mixResult
	var counters workCounters
	for i := 0; i < episodes; i++ {
		chk.counters = workCounters{}
		ep, err := mixEpisode(ctx, e, res, plan, chk, false)
		if err != nil {
			return err
		}
		if i == 0 {
			counters = chk.counters
		} else if chk.counters != counters {
			res.attempted++
			res.fail("episode %d work counters %+v differ from the first episode %+v", i, chk.counters, counters)
		}
		eps = append(eps, ep)
	}
	var setups, walls, cpus, rss []float64
	var lat [][]float64
	for _, ep := range eps {
		setups = append(setups, ep.setup)
		walls = append(walls, ep.wall)
		cpus = append(cpus, ep.cpu)
		rss = append(rss, ep.rss)
		lat = append(lat, ep.latencies)
	}
	res.median("setup_s", "s", setups)
	res.median("wall_s", "s", walls)
	res.median("cpu_s", "s", cpus)
	res.runPercentile("latency_p50_ms", "ms", lat, 50)
	res.runPercentile("latency_p90_ms", "ms", lat, 90)
	res.runPercentile("latency_p99_ms", "ms", lat, 99)
	res.median("peak_rss_mb", "MiB", rss)
	counters.report(res)
	mixLayers(res, eps)
	if !e.traced {
		return nil
	}
	chk.counters = workCounters{}
	tep, err := mixEpisode(ctx, e, res, plan, chk, true)
	if err != nil {
		return err
	}
	if chk.counters != counters {
		res.attempted++
		res.fail("traced episode work counters %+v differ from the untraced ones %+v", chk.counters, counters)
	}
	tep.traceLayers(res)
	res.set("trace.overhead_pct", "%", 100*(tep.wall/quantile(walls, 0.5)-1))
	return nil
}

// mixResult is what one serve-mix episode measured.
type mixResult struct {
	setup     float64
	wall, cpu float64
	rss       float64
	latencies []float64 // ms, every timed request
	outcomes  []mixOutcome
	before    scrape
	after     scrape
	msBefore  memStats
	msAfter   memStats
}

// mixEpisode builds a fresh store, then runs the timed sequence against a
// fresh daemon on it.
func mixEpisode(ctx context.Context, e *env, res *result, plan mixPlan, chk *mixChecker, traced bool) (*mixResult, error) {
	out := &mixResult{}
	t0 := time.Now()
	served, err := mixSetup(ctx, e, res, plan, chk)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0).Seconds()
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
	t0 = time.Now()
	out.outcomes, err = mixRequests(ctx, served, plan.timed, "m", traced)
	if err != nil {
		return nil, err
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
	for _, o := range out.outcomes {
		out.latencies = append(out.latencies, float64(o.latency.Microseconds())/1000)
		if chk.check(res, o) {
			chk.count(o.reply)
		}
	}
	return out, nil
}

// mixSetup simulates the stored configs on a daemon with a fresh store,
// stops it, and starts the daemon that will serve the timed part on the
// same store.
func mixSetup(ctx context.Context, e *env, res *result, plan mixPlan, chk *mixChecker) (*daemon, error) {
	store, err := e.dir("mix-store")
	if err != nil {
		return nil, err
	}
	args := []string{"-store-dir", store, "-parallel", fmt.Sprint(mixClients)}
	filler, err := startDaemon(ctx, e, "mix-filler", args...)
	if err != nil {
		return nil, err
	}
	outs, err := mixRequests(ctx, filler, plan.stored, "s", false)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if chk.check(res, o) && o.reply.Source != "simulated" {
			res.fail("set-up %s: source %s on an empty store", o.cfg, o.reply.Source)
		}
	}
	if err := filler.stop(); err != nil {
		return nil, err
	}
	return startDaemon(ctx, e, "mix-server", args...)
}

// mixRequests sends seq to d from mixClients closed-loop clients and
// returns the outcomes in sequence order. A traced episode also fetches each
// request's span trace, on the same client, before its next request.
func mixRequests(ctx context.Context, d *daemon, seq []mixConfig, idPrefix string, traced bool) ([]mixOutcome, error) {
	client := loadClient(mixClients)
	defer client.CloseIdleConnections()
	outs := make([]mixOutcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) || ctx.Err() != nil {
					return
				}
				id := fmt.Sprintf("%s%06d", idPrefix, i)
				o := mixOutcome{cfg: seq[i]}
				t0 := time.Now()
				o.err = postJSON(ctx, client, d.base+"/v1/run", map[string]string{"X-Request-Id": id},
					seq[i].body(), http.StatusOK, &o.reply)
				o.latency = time.Since(t0)
				if traced && o.err == nil {
					o.trace, o.err = fetchTrace(ctx, client, d, id)
				}
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, ctx.Err()
}

// traceSummary is one /v1/run request's span trace, reduced to the
// layer boundaries the per-layer metrics need.
type traceSummary struct {
	root, run, lookup, simulate time.Duration
	outcome                     string // runcache.lookup outcome: hit, store-hit or miss
}

// fetchTrace reads GET /v1/trace/{id}. The daemon files a trace when its
// root span ends, which can be just after the reply was sent, so a
// missing trace is retried briefly.
func fetchTrace(ctx context.Context, c *http.Client, d *daemon, id string) (*traceSummary, error) {
	var doc struct {
		Spans []struct {
			Name  string `json:"name"`
			DurUS int64  `json:"duration_us"`
			Attrs []struct {
				Key   string `json:"key"`
				Value string `json:"value"`
			} `json:"attrs"`
		} `json:"spans"`
	}
	var err error
	for try := 0; try < 50; try++ {
		if err = getJSON(ctx, c, d.base+"/v1/trace/"+id, &doc); err == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	var t traceSummary
	for _, s := range doc.Spans {
		d := time.Duration(s.DurUS) * time.Microsecond
		switch s.Name {
		case "POST /v1/run":
			t.root = d
		case "run":
			t.run = d
		case "runcache.lookup":
			t.lookup = d
			for _, a := range s.Attrs {
				if a.Key == "outcome" {
					t.outcome = a.Value
				}
			}
		case "simulate":
			t.simulate = d
		}
	}
	return &t, nil
}

// mixLayers records the per-layer metrics of the untraced episodes, each
// the median over episodes.
func mixLayers(res *result, eps []*mixResult) {
	per := func(name, unit string, f func(*mixResult) float64) {
		var v []float64
		for _, ep := range eps {
			v = append(v, f(ep))
		}
		res.median(name, unit, v)
	}
	counter := func(name, series string) {
		per(name, "count", func(ep *mixResult) float64 { return delta(ep.before, ep.after, series) })
	}
	counter("runcache.hits", "pipesimd_runcache_hits_total")
	counter("runcache.misses", "pipesimd_runcache_misses_total")
	counter("runstore.hits", "pipesimd_runstore_hits_total")
	counter("runstore.writes", "pipesimd_runstore_writes_total")
	counter("eventbus.published", "pipesimd_eventbus_published_total")
	counter("eventbus.dropped", "pipesimd_eventbus_dropped_total")
	per("runstore.bytes", "B", func(ep *mixResult) float64 { return delta(ep.before, ep.after, "pipesimd_runstore_bytes") })
	per("pipesimd.decode_ms", "ms", func(ep *mixResult) float64 { return stageMeanMS(ep.before, ep.after, "decode") })
	per("pipesimd.build_ms", "ms", func(ep *mixResult) float64 { return stageMeanMS(ep.before, ep.after, "build") })
	for _, src := range []string{"memory", "store", "simulated"} {
		var med, n []float64
		for _, ep := range eps {
			var lat []float64
			for _, o := range ep.outcomes {
				if o.err == nil && o.reply.Source == src {
					lat = append(lat, float64(o.latency.Microseconds())/1000)
				}
			}
			med = append(med, quantile(lat, 0.5))
			n = append(n, float64(len(lat)))
		}
		res.median("latency_p50_ms."+src, "ms", med)
		res.median("serve.source."+src, "count", n)
	}
	var gc, pause, alloc []float64
	for _, ep := range eps {
		var r result
		runtimeDelta(&r, ep.msBefore, ep.msAfter)
		gc = append(gc, r.metrics["runtime.gc_cycles"].value)
		pause = append(pause, r.metrics["runtime.gc_pause_ms"].value)
		alloc = append(alloc, r.metrics["runtime.alloc_mb"].value)
	}
	res.median("runtime.gc_cycles", "count", gc)
	res.median("runtime.gc_pause_ms", "ms", pause)
	res.median("runtime.alloc_mb", "MiB", alloc)
}

// traceLayers records the metrics read from the traced episode's span
// traces: runcache lookup time by outcome, the store write-through (the
// run span's self time on simulated requests) and the HTTP layer's own
// time (client latency minus the server's root span).
func (p *mixResult) traceLayers(res *result) {
	lookups := map[string][]float64{}
	var writeThrough, httpSelf []float64
	for _, o := range p.outcomes {
		t := o.trace
		if t == nil {
			continue
		}
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		lookups[t.outcome] = append(lookups[t.outcome], ms(t.lookup))
		if o.reply.Source == "simulated" {
			writeThrough = append(writeThrough, ms(t.run-t.lookup-t.simulate))
		}
		httpSelf = append(httpSelf, ms(o.latency-t.root))
	}
	res.median("runcache.lookup_ms.memory", "ms", lookups["hit"])
	res.median("runcache.lookup_ms.store", "ms", lookups["store-hit"])
	res.median("runcache.lookup_ms.miss", "ms", lookups["miss"])
	res.median("runstore.writethrough_ms", "ms", writeThrough)
	res.median("pipesimd.http_self_ms", "ms", httpSelf)
}
