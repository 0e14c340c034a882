package mem

import (
	"math/rand"
	"testing"

	"pipesim/internal/program"
)

// TestPagedRAMMatchesFlatModel drives the demand-paged RAM with a seeded
// random mix of writes and reads and checks every read against the
// simplest possible model of the 20-bit word-addressed space: a map from
// word index to value, where a missing word reads zero. The address mix
// covers words never written, both sides of every page boundary the run
// touches, addresses above AddrMask (which wrap), and the text and data
// words the image preload writes.
func TestPagedRAMMatchesFlatModel(t *testing.T) {
	b := program.NewBuilder()
	for i := 0; i < 1100; i++ { // text crosses the first page boundary
		b.Nop()
	}
	b.Halt()
	b.DataLabel("v")
	for i := 0; i < 1500; i++ { // so does data
		b.Word(uint32(0xD000_0000 + i))
	}
	img, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4}, img, nil)
	if err != nil {
		t.Fatal(err)
	}

	ref := map[uint32]uint32{} // word index -> value
	key := func(addr uint32) uint32 { return (addr & program.AddrMask) / 4 }
	for i, w := range img.RAMWords() {
		ref[key(program.TextBase+uint32(i)*4)] = w
	}
	for i, w := range img.Data {
		ref[key(program.DataBase+uint32(i)*4)] = w
	}
	// The preload must be readable before any other write.
	for k, w := range ref {
		if got := s.ReadWord(k * 4); got != w {
			t.Fatalf("preloaded word %#x = %#x, want %#x", k*4, got, w)
		}
	}

	rng := rand.New(rand.NewSource(1989))
	addr := func() uint32 {
		switch rng.Intn(5) {
		case 0: // anywhere in 32 bits: wraps to the 20-bit space
			return rng.Uint32() &^ 3
		case 1: // within a few words of a page boundary
			return uint32(rng.Intn(int(numPages)))*pageBytes + uint32(rng.Intn(8)-4)*4
		case 2: // the preloaded text and data
			if rng.Intn(2) == 0 {
				return program.TextBase + uint32(rng.Intn(1101))*4
			}
			return program.DataBase + uint32(rng.Intn(1500))*4
		case 3: // a small hot set, so reads often hit earlier writes
			return 0x2_0000 + uint32(rng.Intn(64))*4
		default: // anywhere in the 20-bit space
			return rng.Uint32() & program.AddrMask &^ 3
		}
	}
	for i := 0; i < 200_000; i++ {
		a := addr()
		if rng.Intn(3) == 0 {
			v := rng.Uint32()
			s.WriteWord(a, v)
			ref[key(a)] = v
			continue
		}
		if got, want := s.ReadWord(a), ref[key(a)]; got != want {
			t.Fatalf("op %d: ReadWord(%#x) = %#x, want %#x", i, a, got, want)
		}
	}
	// Every word of the space, written or not, agrees with the model.
	for a := uint32(0); a <= program.AddrMask; a += 4 {
		if got, want := s.ReadWord(a), ref[key(a)]; got != want {
			t.Fatalf("final sweep: ReadWord(%#x) = %#x, want %#x", a, got, want)
		}
	}
}

// TestPagedRAMAllocatesOnWrite: the preload allocates only the pages the
// image covers, reads never allocate, and a write allocates only its own
// page.
func TestPagedRAMAllocatesOnWrite(t *testing.T) {
	s, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	allocated := func() int {
		n := 0
		for _, p := range s.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 2 {
		t.Fatalf("after preload %d pages allocated, want 2 (text and data)", n)
	}
	if s.ReadWord(0x3_0000) != 0 || s.ReadWord(program.AddrMask+1+0x3_0000) != 0 {
		t.Fatal("unwritten word reads nonzero")
	}
	if n := allocated(); n != 2 {
		t.Fatalf("reads allocated pages: %d allocated, want 2", n)
	}
	s.WriteWord(0x3_0FFC, 7)
	if n := allocated(); n != 3 {
		t.Fatalf("after one write %d pages allocated, want 3", n)
	}
	if s.ReadWord(0x3_0FFC) != 7 || s.ReadWord(0x3_1000) != 0 {
		t.Fatal("write leaked across the page boundary")
	}
}
