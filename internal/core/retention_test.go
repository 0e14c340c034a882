//go:build go1.24

// runtime.AddCleanup, unlike SetFinalizer, fires for objects inside
// reference cycles, which a simulator always is (its observers close over
// it). The go1.24 constraint keeps the module's go line where it is.

package core_test

import (
	"runtime"
	"testing"
	"time"

	"pipesim/internal/core"
	"pipesim/internal/stats"
)

// runDropped runs one simulation and returns only its result, with a
// cleanup registered on the simulator that closes done.
func runDropped(t *testing.T, cfg core.Config) (*stats.Sim, <-chan struct{}) {
	t.Helper()
	sim, err := core.New(cfg, smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	runtime.AddCleanup(sim, func(ch chan struct{}) { close(ch) }, done)
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, done
}

// TestRunResultDoesNotPinSimulator: the statistics Run returns are owned
// by the caller. Keeping them must not keep the simulator — its simulated
// RAM, cache and queues — reachable: a sweep holds hundreds of results.
func TestRunResultDoesNotPinSimulator(t *testing.T) {
	for _, introspect := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.CacheIntrospect = introspect
		st, done := runDropped(t, cfg)
		collected := false
		for i := 0; i < 100 && !collected; i++ {
			// Cleanups run on their own goroutine after the collection
			// that frees the object: wait a little between collections.
			runtime.GC()
			select {
			case <-done:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !collected {
			t.Errorf("introspect=%v: simulator still reachable while its result is live", introspect)
		}
		if st.Cycles == 0 {
			t.Errorf("introspect=%v: result lost its cycle count", introspect)
		}
		runtime.KeepAlive(st)
	}
}
