package fetch

import (
	"testing"

	"pipesim/internal/cache"
	"pipesim/internal/isa"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
)

// nativeImage builds a program whose native layout forces two-parcel
// instructions to straddle 8-byte line boundaries: alternating 1-parcel and
// 2-parcel instructions misalign the stream immediately.
func nativeImage(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	for i := 0; i < 20; i++ {
		b.Nop()                      // 2 bytes
		b.RI(isa.OpADDI, 1, 1, 1000) // 4 bytes (large immediate)
	}
	b.Halt()
	img, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	nat, err := program.ToNative(img)
	if err != nil {
		t.Fatal(err)
	}
	return nat
}

func newNativePipe(t *testing.T, img *program.Image, mcfg mem.Config, cacheBytes, lineBytes int) (*Pipe, *mem.System) {
	t.Helper()
	sys, err := mem.New(mcfg, img, nil, obs.NewSink(-1))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := cache.New(cacheBytes, lineBytes, isa.ParcelBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewPipe(PipeConfig{
		CacheBytes: cacheBytes, LineBytes: lineBytes,
		IQBytes: lineBytes, IQBBytes: lineBytes, TruePrefetch: true,
	}, arr, img, sys, img.Entry, obs.NewSink(-1))
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys
}

// TestNativeStraddleOneLineCache is the adversarial case that motivated the
// split-instruction latch: a one-line cache with straddling instructions
// must still make progress (fetching the tail line evicts the head line).
func TestNativeStraddleOneLineCache(t *testing.T) {
	img := nativeImage(t)
	eng, sys := newNativePipe(t, img, memCfg(6, 8, false), 8, 8) // one 8-byte line
	h := newHarness(t, img, eng, sys, neverTaken)
	trace := h.run(20000)
	if len(trace) != 41 { // 40 instructions + HALT
		t.Fatalf("trace length %d, want 41", len(trace))
	}
	// PCs advance by the variable encoded lengths: 2, 4, 2, 4, ...
	want := uint32(0)
	for i, pc := range trace {
		if pc != want {
			t.Fatalf("trace[%d] = %#x, want %#x", i, pc, want)
		}
		if i%2 == 0 {
			want += 2
		} else {
			want += 4
		}
	}
}

// TestNativeConvStraddle exercises the conventional engine's latch the same
// way.
func TestNativeConvStraddle(t *testing.T) {
	img := nativeImage(t)
	sys, err := mem.New(memCfg(6, 4, false), img, nil, obs.NewSink(-1))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := cache.New(16, 16, isa.ParcelBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewConv(ConvConfig{CacheBytes: 16, LineBytes: 16, ChunkBytes: 4}, arr, img, sys, img.Entry, obs.NewSink(-1))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, img, eng, sys, neverTaken)
	trace := h.run(20000)
	if len(trace) != 41 {
		t.Fatalf("trace length %d, want 41", len(trace))
	}
}

// TestNativeLoopWithBranches runs a native loop and checks the delayed
// drain-time redirect still produces the correct stream.
func TestNativeLoopWithBranches(t *testing.T) {
	b := program.NewBuilder()
	b.LI(5, 4)
	b.SetB(0, "loop", 0)
	b.Label("loop")
	b.Nop()
	b.RI(isa.OpADDI, 1, 1, 900) // two parcels
	b.RI(isa.OpADDI, 5, 5, -1)
	b.PBR(isa.CondNE, 5, 0, 2)
	b.Nop()
	b.RI(isa.OpADDI, 2, 2, 700) // two parcels, straddle-prone
	b.Halt()
	img, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	nat, err := program.ToNative(img)
	if err != nil {
		t.Fatal(err)
	}
	eng, sys := newNativePipe(t, nat, memCfg(6, 8, false), 16, 8)
	iter := 0
	h := newHarness(t, nat, eng, sys, func(pc uint32, in isa.Inst) (bool, uint32) {
		iter++
		loop, _ := nat.Lookup("loop")
		return iter < 4, loop
	})
	trace := h.run(40000)
	want := 2 + 4*6 + 1 // prologue + 4 iterations of 6 + HALT
	if len(trace) != want {
		t.Fatalf("trace length %d, want %d", len(trace), want)
	}
}
