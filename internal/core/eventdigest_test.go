package core_test

// Event-stream pins. The observability layer must not change what it
// reports when its plumbing changes: these tests hash the complete stamped
// probe stream and the final flight-recorder snapshot of a fixed set of
// runs and compare them with digests recorded from a known-good build.
// A digest mismatch means some event was added, dropped, reordered or
// restamped.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"pipesim/internal/asm"
	"pipesim/internal/core"
	"pipesim/internal/kernels"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/synth"
)

// digestKernelSrc is the public fuzz kernel: a read-modify-write reduction
// through the data queues, a counted PBR loop and one FPU multiply.
const digestKernelSrc = `
        la    r2, vec
        li    r5, 8
        li    r4, 0
        setb  b0, loop
loop:   ld    0(r2)
        mov   r3, r7
        add   r4, r4, r3
        st    0(r2)
        mov   r7, r4
        addi  r5, r5, -1
        pbr   ne, r5, b0, 1
        addi  r2, r2, 4
        la    r1, FPU_A
        la    r6, fa
        ld    0(r6)
        st    0(r1)
        mov   r7, r7
        ld    4(r6)
        st    4(r1)
        mov   r7, r7
        la    r3, prod
        st    0(r3)
        mov   r7, r7
        halt
        .data
vec:    .word 1, 2, 3, 4, 5, 6, 7, 8
fa:     .float 1.5
fb:     .float 2.0
prod:   .word 0
`

// digestInterruptSrc sums 1..40 while a single-level interrupt runs a
// handler on the background register bank.
const digestInterruptSrc = `
        li    r1, 40
        li    r2, 0
        setb  b0, loop
loop:   add   r2, r2, r1
        addi  r1, r1, -1
        pbr   ne, r1, b0, 2
        nop
        nop
        la    r3, out
        st    0(r3)
        mov   r7, r2
        halt

isr:    la    r1, counter
        ld    0(r1)
        mov   r2, r7
        addi  r2, r2, 1
        st    0(r1)
        mov   r7, r2
        bank
        pbr   al, r0, b7, 0

        .data
out:     .word 0
counter: .word 0
`

// eventHasher folds events into an FNV-64a digest: kind, cycle, addr, arg
// and value of every event, in order.
type eventHasher struct {
	h   hash.Hash64
	n   uint64
	buf [25]byte
}

func newEventHasher() *eventHasher { return &eventHasher{h: fnv.New64a()} }

func (eh *eventHasher) Event(e obs.Event) {
	eh.buf[0] = byte(e.Kind)
	binary.LittleEndian.PutUint64(eh.buf[1:], e.Cycle)
	binary.LittleEndian.PutUint32(eh.buf[9:], e.Addr)
	binary.LittleEndian.PutUint32(eh.buf[13:], e.Arg)
	binary.LittleEndian.PutUint64(eh.buf[17:], e.Value)
	eh.h.Write(eh.buf[:])
	eh.n++
}

func (eh *eventHasher) sum() string { return fmt.Sprintf("%d/%016x", eh.n, eh.h.Sum64()) }

func digestEvents(events []obs.Event) string {
	eh := newEventHasher()
	for _, e := range events {
		eh.Event(e)
	}
	return eh.sum()
}

// streamDigest is what one case pins: the probe stream, the flight ring
// after the probed run, and the flight ring of the same run with no probe
// (skip-ahead on).
type streamDigest struct {
	stream, flight, flightUnprobed string
}

type digestCase struct {
	name  string
	cfg   core.Config
	img   *program.Image
	loops func(*program.Image) []obs.LoopRange
}

// halfRanges splits the text into two pseudo-loops so loop tracking runs
// on programs without Livermore symbols.
func halfRanges(img *program.Image) []obs.LoopRange {
	end := img.NativeTextEnd()
	mid := program.TextBase + (end-program.TextBase)/2
	return []obs.LoopRange{
		{Loop: 1, Name: "head", Start: program.TextBase, End: mid},
		{Loop: 2, Name: "tail", Start: mid, End: end},
	}
}

func livermoreRanges(img *program.Image) []obs.LoopRange {
	r, err := kernels.LoopRanges(img)
	if err != nil {
		panic(err)
	}
	return r
}

func runDigest(t *testing.T, c digestCase) streamDigest {
	t.Helper()
	sim, err := core.New(c.cfg, c.img)
	if err != nil {
		t.Fatal(err)
	}
	if c.loops != nil {
		sim.SetLoopRanges(c.loops(sim.Image()))
	}
	eh := newEventHasher()
	sim.SetProbe(eh)
	if _, err := sim.Run(); err != nil {
		t.Fatalf("probed run: %v", err)
	}
	d := streamDigest{stream: eh.sum(), flight: digestEvents(sim.FlightEvents())}

	plain, err := core.New(c.cfg, c.img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run(); err != nil {
		t.Fatalf("unprobed run: %v", err)
	}
	d.flightUnprobed = digestEvents(plain.FlightEvents())
	return d
}

func digestCases(t *testing.T) []digestCase {
	t.Helper()
	loop, err := synth.Loop(synth.LoopSpec{BodyInstr: 16, Iterations: 25, Loads: 2, Stores: 2, DelaySlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := asm.Assemble(digestKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	irq, err := asm.Assemble(digestInterruptSrc)
	if err != nil {
		t.Fatal(err)
	}
	isr, ok := irq.Lookup("isr")
	if !ok {
		t.Fatal("no isr symbol")
	}
	base := core.DefaultConfig()
	base.Mem.AccessTime = 6
	base.Mem.BusWidthBytes = 8
	base.TIBEntries = 4
	base.TIBLineBytes = 16

	var cases []digestCase
	for _, p := range []struct {
		name string
		img  *program.Image
	}{{"loop", loop}, {"kernel", kernel}} {
		for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
			for _, native := range []bool{false, true} {
				for _, intro := range []bool{false, true} {
					if strat == core.FetchTIB && (native || intro) {
						continue // no native TIB; TIB ignores introspection
					}
					cfg := base
					cfg.Fetch = strat
					cfg.NativeFormat = native
					cfg.CacheIntrospect = intro
					if strat == core.FetchConventional {
						cfg.LineBytes = 32
					}
					cases = append(cases, digestCase{
						name:  fmt.Sprintf("%s/%s/native=%v/introspect=%v", p.name, strat, native, intro),
						cfg:   cfg,
						img:   p.img,
						loops: halfRanges,
					})
				}
			}
		}
	}
	for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		cfg := base
		cfg.Fetch = strat
		cfg.Mem.AccessTime = 3
		cfg.InterruptAt = 60
		cfg.InterruptVector = isr
		cases = append(cases, digestCase{name: "interrupt/" + strat.String(), cfg: cfg, img: irq})
	}
	if !testing.Short() {
		img, _, err := kernels.Program()
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.CacheIntrospect = true
		cases = append(cases, digestCase{name: "livermore/pipe/introspect", cfg: cfg, img: img, loops: livermoreRanges})
	}
	return cases
}

// pinnedDigests holds the recorded digests, as "events/fnv64".
var pinnedDigests = map[string]streamDigest{
	"loop/pipe/native=false/introspect=false":           {"2410/25196713a990989a", "256/b22c0c46ed47ee80", "256/b22c0c46ed47ee80"},
	"loop/pipe/native=false/introspect=true":            {"2410/682b08ba7923bc62", "256/fce5fd7873af42bf", "256/fce5fd7873af42bf"},
	"loop/pipe/native=true/introspect=false":            {"2318/bc361d4d9987f31e", "256/ec3a9e266eb3e781", "256/ec3a9e266eb3e781"},
	"loop/pipe/native=true/introspect=true":             {"2318/799d3c4a94f80c98", "256/1ec7302ea6920e2e", "256/1ec7302ea6920e2e"},
	"loop/conventional/native=false/introspect=false":   {"2033/2e51eb128a5076c8", "256/4d3a3d51f3841177", "256/4d3a3d51f3841177"},
	"loop/conventional/native=false/introspect=true":    {"2033/019cc696fd0f0fd9", "256/4d3a3d51f3841177", "256/4d3a3d51f3841177"},
	"loop/conventional/native=true/introspect=false":    {"1997/3fcc7d038ec7aaf5", "256/e7f43e09a99aa1af", "256/e7f43e09a99aa1af"},
	"loop/conventional/native=true/introspect=true":     {"1997/fb8a0ca661f97fc1", "256/e7f43e09a99aa1af", "256/e7f43e09a99aa1af"},
	"loop/tib/native=false/introspect=false":            {"3215/f339eb1450fce643", "256/33ee689e234b3ff9", "256/33ee689e234b3ff9"},
	"kernel/pipe/native=false/introspect=false":         {"589/d3b7db5765d01e8c", "205/7ddc2a37c7a5b5ce", "205/7ddc2a37c7a5b5ce"},
	"kernel/pipe/native=false/introspect=true":          {"589/02329c14ccd64590", "205/1b41e3d1ef84d592", "205/1b41e3d1ef84d592"},
	"kernel/pipe/native=true/introspect=false":          {"546/322b197057a1ccaa", "176/579b2b7bc14b16a6", "176/579b2b7bc14b16a6"},
	"kernel/pipe/native=true/introspect=true":           {"546/a49a045746136911", "176/8e245d9bd0478655", "176/8e245d9bd0478655"},
	"kernel/conventional/native=false/introspect=false": {"560/2bed2c0611ae6a97", "256/fd4715e6e903f9ea", "256/fd4715e6e903f9ea"},
	"kernel/conventional/native=false/introspect=true":  {"560/4ac5eb72345cdefb", "256/1cb42dbfb40d3051", "256/1cb42dbfb40d3051"},
	"kernel/conventional/native=true/introspect=false":  {"496/e338063ec5876976", "245/42f41cdcfa760956", "245/42f41cdcfa760956"},
	"kernel/conventional/native=true/introspect=true":   {"496/8f4f8ab5447333a1", "245/490e00b00399152b", "245/490e00b00399152b"},
	"kernel/tib/native=false/introspect=false":          {"686/8ae87d006b8eba09", "246/96fb03bddadbb5fc", "246/96fb03bddadbb5fc"},
	"interrupt/pipe":            {"1061/fb4739d3cb3f654f", "256/989b227857144ad0", "256/989b227857144ad0"},
	"interrupt/conventional":    {"788/0277fe874fc9e013", "256/c86a3fd0116e2b3d", "256/c86a3fd0116e2b3d"},
	"interrupt/tib":             {"1177/d4f208c2da67c232", "256/486288071531f4f0", "256/486288071531f4f0"},
	"livermore/pipe/introspect": {"1435139/8fa87501027cffa7", "256/6080157dd9b98705", "256/6080157dd9b98705"},
}

// TestProbeStreamDigest pins the full stamped probe stream and the flight
// recorder's final contents across strategies, instruction formats,
// introspection, interrupts and loop tracking.
func TestProbeStreamDigest(t *testing.T) {
	for _, c := range digestCases(t) {
		got := runDigest(t, c)
		want, ok := pinnedDigests[c.name]
		if !ok {
			t.Errorf("no pinned digest:\n\t%q: {%q, %q, %q},", c.name, got.stream, got.flight, got.flightUnprobed)
			continue
		}
		if got != want {
			t.Errorf("%s: digests changed\n got  %+v\n want %+v", c.name, got, want)
		}
	}
}

// stuckAfterLoopSrc retires a 30-iteration loop, then reads R7 with no
// load in flight and deadlocks: its retire tail is full when the watchdog
// fires.
const stuckAfterLoopSrc = `
        li    r1, 30
        li    r2, 0
        setb  b0, loop
loop:   add   r2, r2, r1
        addi  r1, r1, -1
        pbr   ne, r1, b0, 2
        nop
        nop
        add   r2, r7, r1
        halt
`

// pinnedTails holds the recorded retire tails: count/fnv64 over
// (cycle, PC, disassembly) lines, plus the machine check's PC.
var pinnedTails = map[string]string{
	"pipe/native=false":         "mc 32/aa4fae97fcb163a2 pc=0x00038 dl 1/5b1a287d6f96d0e0 dl 32/9af796dbb9f23d61",
	"pipe/native=true":          "mc 32/f24823d6c772480a pc=0x0001a dl 1/5b1a287d6f96d0e0 dl 32/5ac8bd798fc14bff",
	"conventional/native=false": "mc 32/a2a7b6b60a222142 pc=0x00018 dl 1/5b1a287d6f96d0e0 dl 32/340d631684463d6b",
	"conventional/native=true":  "mc 32/a36d0930c3cff479 pc=0x0000e dl 1/5b1a287d6f96d0e0 dl 32/8a5a6d76705b62cc",
	"tib/native=false":          "mc 32/d0b20d9827adc391 pc=0x00018 dl 1/5b1a287d6f96d0e0 dl 32/22dbb37b7d1218e7",
}

// TestRetireTailParity pins the retire tail carried by MachineCheckError
// and DeadlockError (cycle, PC and disassembly of each entry, and the
// machine check's PC) for every strategy in both instruction formats.
func TestRetireTailParity(t *testing.T) {
	loop, err := synth.Loop(synth.LoopSpec{BodyInstr: 16, Iterations: 25, Loads: 2, Stores: 2, DelaySlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	stuckLoop, err := asm.Assemble(stuckAfterLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		for _, native := range []bool{false, true} {
			if strat == core.FetchTIB && native {
				continue
			}
			cfg := core.DefaultConfig()
			cfg.Fetch = strat
			cfg.NativeFormat = native
			cfg.TIBEntries = 4
			cfg.TIBLineBytes = 16
			cfg.Mem.AccessTime = 6
			cfg.Mem.BusWidthBytes = 8
			cfg.WatchdogCycles = 2_000
			name := fmt.Sprintf("%s/native=%v", strat, native)

			sim, err := core.New(cfg, loop)
			if err != nil {
				t.Fatal(err)
			}
			sim.SetProbe(obs.ProbeFunc(func(e obs.Event) {
				if e.Kind == obs.KindRetire && e.Cycle >= 400 {
					panic("injected simulator fault")
				}
			}))
			_, err = sim.Run()
			var mce *core.MachineCheckError
			if !errors.As(err, &mce) {
				t.Fatalf("%s: Run err = %v, want *MachineCheckError", name, err)
			}
			h := fnv.New64a()
			for _, e := range mce.Trace {
				fmt.Fprintf(h, "%d %05x %s\n", e.Cycle, e.PC, e.Inst)
			}
			got := fmt.Sprintf("mc %d/%016x pc=%#05x", len(mce.Trace), h.Sum64(), mce.PC)

			for _, img := range []*program.Image{stuckProgram(t), stuckLoop} {
				sim, err := core.New(cfg, img)
				if err != nil {
					t.Fatal(err)
				}
				_, err = sim.Run()
				var dl *core.DeadlockError
				if !errors.As(err, &dl) {
					t.Fatalf("%s: Run err = %v, want *DeadlockError", name, err)
				}
				h := fnv.New64a()
				for _, e := range dl.Trace {
					fmt.Fprintf(h, "%d %05x %s\n", e.Cycle, e.PC, e.Inst)
				}
				got += fmt.Sprintf(" dl %d/%016x", len(dl.Trace), h.Sum64())
			}
			want, ok := pinnedTails[name]
			if !ok {
				t.Errorf("no pinned tail:\n\t%q: %q,", name, got)
				continue
			}
			if got != want {
				t.Errorf("%s: retire tail changed\n got  %s\n want %s", name, got, want)
			}
		}
	}
}
