// Package runcache memoizes complete simulation results. The simulator is
// deterministic: one (configuration, program image) pair always produces
// the same statistics, so a finished run's stats.Sim can stand in for any
// repeat of the same point. The experiment catalog re-simulates many
// identical machines (Figure 6a's machine is Figure 5b's), and a serving
// daemon sees the same sweep requests over and over; both hit this cache
// instead of re-running the 150k-instruction benchmark.
//
// Keys are content-addressed: a canonical hash of the full core.Config and
// the program image's fingerprint. Configurations that denote the same
// machine (for example MaxCycles zero versus the explicit default) hash to
// the same key. Values are immutable — Get returns a copy, so no caller can
// corrupt a cached result — and eviction is least-recently-used with a
// bounded entry count.
package runcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"pipesim/internal/core"
	"pipesim/internal/program"
	"pipesim/internal/stats"
	"pipesim/internal/tracing"
)

// Key identifies one simulated machine: a canonical hash of the complete
// configuration and the program image content.
type Key [sha256.Size]byte

// KeyFor computes the content-addressed key for running cfg over the image
// with the given fingerprint. The configuration is canonicalized first so
// equivalent configurations collide (deliberately).
func KeyFor(cfg core.Config, imageFP [sha256.Size]byte) Key {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = core.DefaultMaxCycles
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = core.DefaultWatchdogCycles
	}
	// Introspection never changes cycle counts, but it adds the Cache block
	// to the result, so it is part of the key (unlike FlightRecDepth, or
	// NoSkipAhead — skip-ahead is bit-identical by construction, so a
	// stepped and a skipping run share one cache entry). The top-PC bound
	// only matters when introspection is on.
	if !cfg.CacheIntrospect {
		cfg.CacheTopPCs = 0
	} else if cfg.CacheTopPCs == 0 {
		cfg.CacheTopPCs = core.DefaultCacheTopPCs
	}
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	num := func(v int) { u64(uint64(int64(v))) }
	flag := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	// Version tag: bump when the hashed field set changes, so stale keys
	// from an older layout can never alias a new one.
	h.Write([]byte("pipesim-runcache/v2"))
	num(int(cfg.Fetch))
	num(cfg.CacheBytes)
	num(cfg.LineBytes)
	num(cfg.IQBytes)
	num(cfg.IQBBytes)
	flag(cfg.TruePrefetch)
	flag(cfg.DeepPrefetch)
	flag(cfg.NativeFormat)
	num(cfg.TIBEntries)
	num(cfg.TIBLineBytes)
	num(cfg.Mem.AccessTime)
	num(cfg.Mem.BusWidthBytes)
	flag(cfg.Mem.Pipelined)
	flag(cfg.Mem.InstrPriority)
	num(cfg.Mem.FPULatency)
	num(cfg.CPU.LAQDepth)
	num(cfg.CPU.LDQDepth)
	num(cfg.CPU.SAQDepth)
	num(cfg.CPU.SDQDepth)
	num(cfg.CPU.DCacheBytes)
	num(cfg.CPU.DCacheLineBytes)
	u64(cfg.InterruptAt)
	u64(uint64(cfg.InterruptVector))
	u64(cfg.MaxCycles)
	u64(cfg.WatchdogCycles)
	flag(cfg.CacheIntrospect)
	num(cfg.CacheTopPCs)
	h.Write(imageFP[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// String renders the key as lowercase hex — the stable on-disk identity
// used by job checkpoint files (internal/jobs).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("runcache: bad key %q: %w", s, err)
	}
	if len(b) != sha256.Size {
		return k, fmt.Errorf("runcache: bad key %q: want %d bytes, got %d", s, sha256.Size, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// Counters is a point-in-time snapshot of the cache's activity. The JSON
// names are stable: cmd/experiments embeds a snapshot in its -metrics file.
type Counters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"entries"`
}

// Tier is a persistent second-level result store under the memory cache
// (internal/runstore implements it). Lookup is consulted on a memory miss;
// Store is called write-through after a fresh simulation. Implementations
// must be safe for concurrent use and must not fail the caller — a broken
// disk is an observability problem, not a simulation error.
type Tier interface {
	Lookup(k Key) (stats.Sim, bool)
	Store(k Key, cfg core.Config, st *stats.Sim)
}

// Source reports where a cached run's result came from.
type Source int

// Result sources, from slowest to fastest path.
const (
	// SourceSimulated: the result was computed by running the simulator.
	SourceSimulated Source = iota
	// SourceMemory: served from the in-process LRU.
	SourceMemory
	// SourceStore: served from the persistent second tier (and promoted
	// into memory).
	SourceStore
)

var sourceNames = [...]string{"simulated", "memory", "store"}

// String returns the source's stable lower-case name, as surfaced in
// /v1/run responses.
func (s Source) String() string {
	if s >= 0 && int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// entry is one cached result with its LRU bookkeeping.
type entry struct {
	key Key
	st  stats.Sim
}

// Cache is a bounded, concurrency-safe memo of finished simulation
// results. The zero value is unusable; construct with New.
type Cache struct {
	enabled atomic.Bool

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	// store holds the optional persistent second tier behind a pointer
	// box, so SetStore can atomically install, replace or clear it while
	// runs are in flight (an interface value itself is not atomic).
	store atomic.Pointer[tierBox]

	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *entry
	items map[Key]*list.Element
}

// tierBox wraps a Tier for atomic.Pointer storage.
type tierBox struct{ t Tier }

// DefaultEntries bounds the process-wide Default cache. A cached stats.Sim
// is a few hundred bytes, so even the full bound is a fraction of one run's
// working set; the limit exists to keep a long-lived daemon's memory flat
// no matter how many distinct machines it is asked to simulate.
const DefaultEntries = 4096

// Default is the process-wide run cache, enabled by default. The -runcache
// flags of cmd/experiments and cmd/pipesimd toggle it.
var Default = New(DefaultEntries)

// New returns an enabled cache bounded to maxEntries results.
func New(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	c := &Cache{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[Key]*list.Element),
	}
	c.enabled.Store(true)
	return c
}

// SetEnabled switches memoization on or off. Disabled, Get always misses
// (without counting) and Put discards; cached entries are kept for when the
// cache is re-enabled.
func (c *Cache) SetEnabled(on bool) { c.enabled.Store(on) }

// SetStore installs (or, with nil, removes) the persistent second tier:
// memory LRU → store → simulate. A store hit is promoted into memory; a
// fresh simulation is written through to both tiers. Disabling the cache
// (SetEnabled(false)) bypasses the store too.
func (c *Cache) SetStore(t Tier) {
	if t == nil {
		c.store.Store(nil)
		return
	}
	c.store.Store(&tierBox{t: t})
}

// tier returns the installed second tier, or nil.
func (c *Cache) tier() Tier {
	if b := c.store.Load(); b != nil {
		return b.t
	}
	return nil
}

// Enabled reports whether the cache is serving lookups.
func (c *Cache) Enabled() bool { return c.enabled.Load() }

// Get returns a copy of the cached result for k, marking it most recently
// used.
func (c *Cache) Get(k Key) (stats.Sim, bool) {
	if !c.enabled.Load() {
		return stats.Sim{}, false
	}
	c.mu.Lock()
	el, ok := c.items[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return stats.Sim{}, false
	}
	c.ll.MoveToFront(el)
	st := el.Value.(*entry).st
	c.mu.Unlock()
	c.hits.Add(1)
	return st, true
}

// Put stores a copy of st under k, evicting the least recently used entry
// when the cache is full. Storing an existing key refreshes it.
func (c *Cache) Put(k Key, st *stats.Sim) {
	if !c.enabled.Load() || st == nil {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry).st = *st
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.evictions.Add(1)
	}
	c.items[k] = c.ll.PushFront(&entry{key: k, st: *st})
	c.mu.Unlock()
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the hit/miss/eviction counters and current size.
func (c *Cache) Stats() Counters {
	return Counters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
	}
}

// Reset drops every cached entry (counters are kept; they are monotonic by
// contract, as metric exporters depend on). Used by benchmarks to measure
// cold-versus-warm behavior.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// Run executes cfg over img through the cache: a hit returns the memoized
// statistics without simulating; a miss simulates, stores the result and
// returns it. Only successful runs are cached — errors always re-execute.
// The returned statistics are the caller's to keep (a private copy).
//
// Callers needing probes, tracers or any other side effect of execution
// must run core.New directly: a memoized result replays no events.
func (c *Cache) Run(cfg core.Config, img *program.Image) (*stats.Sim, error) {
	return c.RunCtx(context.Background(), cfg, img)
}

// RunCtx is Run with request-scoped tracing: when the context carries a
// span (a pipesimd request), the lookup becomes a "runcache.lookup" span
// annotated with its hit/miss outcome, and an actual simulation becomes a
// "simulate" span. On an untraced context both spans are no-ops, so the
// library path pays one context value lookup and nothing more.
func (c *Cache) RunCtx(ctx context.Context, cfg core.Config, img *program.Image) (*stats.Sim, error) {
	st, _, err := c.RunSource(ctx, cfg, img)
	return st, err
}

// RunSource is RunCtx reporting where the result came from: the memory
// LRU, the persistent store (SetStore), or a fresh simulation. It is
// Lookup followed, on a miss, by Fill.
func (c *Cache) RunSource(ctx context.Context, cfg core.Config, img *program.Image) (*stats.Sim, Source, error) {
	k := KeyFor(cfg, img.Fingerprint())
	if st, src, ok := c.Lookup(ctx, k); ok {
		return st, src, nil
	}
	st, err := c.Fill(ctx, k, cfg, img)
	return st, SourceSimulated, err
}

// Lookup serves k without simulating: from the memory LRU, or else from
// the persistent store, whose hit is promoted into memory. The lookup is
// a "runcache.lookup" span annotated with its outcome (hit, store-hit or
// miss). A nil or disabled cache always misses, and records no span.
// Callers that want a cached result answered inline and only a real
// simulation bounded or offloaded call Lookup and then, on a miss, Fill
// with the same key.
func (c *Cache) Lookup(ctx context.Context, k Key) (*stats.Sim, Source, bool) {
	if c == nil || !c.enabled.Load() {
		return nil, SourceSimulated, false
	}
	_, look := tracing.StartSpan(ctx, "runcache.lookup")
	defer look.End()
	if st, ok := c.Get(k); ok {
		look.SetAttr("outcome", "hit")
		return &st, SourceMemory, true
	}
	if t := c.tier(); t != nil {
		if st, ok := t.Lookup(k); ok {
			c.Put(k, &st)
			look.SetAttr("outcome", "store-hit")
			return &st, SourceStore, true
		}
	}
	look.SetAttr("outcome", "miss")
	return nil, SourceSimulated, false
}

// Fill simulates cfg over img — the miss path behind Lookup — and, when
// the cache is enabled, writes the result through both tiers under k, so
// a restarted process finds it on disk. k must be KeyFor(cfg,
// img.Fingerprint()). Only successful runs are stored.
func (c *Cache) Fill(ctx context.Context, k Key, cfg core.Config, img *program.Image) (*stats.Sim, error) {
	st, err := simulate(ctx, cfg, img)
	if err != nil {
		return nil, err
	}
	if c == nil || !c.enabled.Load() {
		return st, nil
	}
	c.Put(k, st)
	if t := c.tier(); t != nil {
		t.Store(k, cfg, st)
	}
	return st, nil
}

// simulate is one uncached simulation wrapped in a "simulate" span.
func simulate(ctx context.Context, cfg core.Config, img *program.Image) (*stats.Sim, error) {
	_, span := tracing.StartSpan(ctx, "simulate")
	defer span.End()
	st, err := runFresh(cfg, img)
	if err != nil {
		return nil, err
	}
	span.SetAttr("cycles", fmt.Sprint(st.Cycles))
	return st, nil
}

// newSimulator builds the simulator behind every miss; tests wrap it to
// observe the simulator's lifetime.
var newSimulator = core.New

// runFresh is one uncached simulation. The result is the caller's own
// copy (core.Simulator.Run), so neither the caller nor the cache tiers
// keep the finished simulator reachable.
func runFresh(cfg core.Config, img *program.Image) (*stats.Sim, error) {
	sim, err := newSimulator(cfg, img)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
