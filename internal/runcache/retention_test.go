//go:build go1.24

// runtime.AddCleanup fires for objects inside reference cycles (a
// simulator always is one); the go1.24 constraint keeps the module's go
// line where it is.

package runcache

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pipesim/internal/core"
	"pipesim/internal/program"
	"pipesim/internal/stats"
)

// missDropped resolves one configuration through Default on a miss and
// returns only the result; done closes once the simulator behind the miss
// has been collected.
func missDropped(t *testing.T, cfg core.Config, img *program.Image) (*stats.Sim, <-chan struct{}) {
	t.Helper()
	done := make(chan struct{})
	newSimulator = func(cfg core.Config, img *program.Image) (*core.Simulator, error) {
		sim, err := core.New(cfg, img)
		if err == nil {
			runtime.AddCleanup(sim, func(ch chan struct{}) { close(ch) }, done)
		}
		return sim, err
	}
	defer func() { newSimulator = core.New }()
	if _, ok := Default.Get(KeyFor(cfg, img.Fingerprint())); ok {
		t.Fatal("configuration already cached: the run would not miss")
	}
	st, err := Default.RunCtx(context.Background(), cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	return st, done
}

// TestMissResultDoesNotPinSimulator: a result handed out on a cache miss
// is the caller's own copy. Neither it nor the cache entry may keep the
// simulator that produced it reachable, or every point a sweep holds pins
// a whole machine.
func TestMissResultDoesNotPinSimulator(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 512 // a machine no other test in the package runs
	st, done := missDropped(t, cfg, testImage(t))
	collected := false
	for i := 0; i < 100 && !collected; i++ {
		runtime.GC()
		select {
		case <-done:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Error("simulator still reachable while the miss result is live")
	}
	if st.Cycles == 0 {
		t.Error("miss result lost its cycle count")
	}
	runtime.KeepAlive(st)
}
