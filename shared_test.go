package pipesim

// White-box tests of the process-wide benchmark image: they compare the
// image pointers behind Program values, which the public API hides.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"pipesim/internal/program"
)

// TestLivermoreProgramShared: every LivermoreProgram call wraps one image,
// and so does every LivermoreKernel call for the same loop, so the
// predecode table and the run-cache fingerprint are computed once per
// process rather than once per request.
func TestLivermoreProgramShared(t *testing.T) {
	a, _, err := LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	if a.img != b.img {
		t.Error("two LivermoreProgram calls built two images")
	}
	seen := map[*program.Image]int{}
	for k := 1; k <= 14; k++ {
		p, err := LivermoreKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		q, err := LivermoreKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		if p.img != q.img {
			t.Errorf("two LivermoreKernel(%d) calls built two images", k)
		}
		if p.img == a.img {
			t.Errorf("LivermoreKernel(%d) returned the whole benchmark", k)
		}
		if j, dup := seen[p.img]; dup {
			t.Errorf("LivermoreKernel(%d) and LivermoreKernel(%d) share an image", j, k)
		}
		seen[p.img] = k
	}
	for _, k := range []int{0, 15} {
		if _, err := LivermoreKernel(k); err == nil {
			t.Errorf("LivermoreKernel(%d) succeeded, want a range error", k)
		}
	}
}

// archivedHit is one daemon memory-hit request minus HTTP: fetch the
// benchmark program, then serve the configuration through the run cache.
func archivedHit(t *testing.T, cfg Config) RunSource {
	prog, _, err := LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	_, src, err := RunArchived(context.Background(), cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestRunArchivedHitAllocBound pins the footprint of a warm /v1/run
// without asm or kernel: LivermoreProgram + RunArchived on a cached
// configuration. Rebuilding and rehashing the benchmark per request cost
// about 790 KB in over 1,000 allocations; sharing the image leaves only
// the key hash, the lookup and the copy-out.
func TestRunArchivedHitAllocBound(t *testing.T) {
	const (
		runs        = 20
		maxBytes    = 64 << 10
		maxMallocs  = 200
		warmupCalls = 2
	)
	cfg := DefaultConfig()
	var src RunSource
	for i := 0; i < warmupCalls; i++ {
		src = archivedHit(t, cfg)
	}
	if src != RunFromMemory {
		t.Fatalf("warm request served from %q, want %q", src, RunFromMemory)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		archivedHit(t, cfg)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	mallocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("memory-hit request: %d B in %d allocs per op", bytes, mallocs)
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Errorf("memory-hit request allocated %d B in %d allocs per op, want <= %d B and <= %d allocs",
			bytes, mallocs, maxBytes, maxMallocs)
	}
}

// TestRunArchivedConcurrentShared: concurrent requests share the one
// benchmark image and agree on the run-cache key and cycle count. Run
// under -race it also checks that the shared image's lazy state and the
// run cache are safe to use from many goroutines at once.
func TestRunArchivedConcurrentShared(t *testing.T) {
	const workers = 8
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 // a configuration the other tests here do not warm
	type reply struct {
		res  *Result
		prog *Program
	}
	replies := make([]reply, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prog, _, err := LivermoreProgram()
			if err != nil {
				t.Error(err)
				return
			}
			res, _, err := RunArchived(context.Background(), cfg, prog)
			if err != nil {
				t.Error(err)
				return
			}
			replies[w] = reply{res, prog}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	first := replies[0]
	for w, r := range replies[1:] {
		if r.prog.img != first.prog.img {
			t.Errorf("worker %d ran a different image", w+1)
		}
		if r.res.Key != first.res.Key || r.res.Cycles != first.res.Cycles {
			t.Errorf("worker %d: key %s cycles %d, want key %s cycles %d",
				w+1, r.res.Key, r.res.Cycles, first.res.Key, first.res.Cycles)
		}
	}
}
