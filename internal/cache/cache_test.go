package cache

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, size, line, sub int) *Cache {
	t.Helper()
	c, err := New(size, line, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := [][3]int{
		{0, 4, 4}, {128, 0, 4}, {128, 8, 0},
		{100, 4, 4},   // size not power of two
		{128, 12, 4},  // line not power of two
		{128, 8, 3},   // sub not power of two
		{128, 256, 4}, // line > size
		{128, 8, 16},  // sub > line
		{-128, 8, 4},
	}
	for _, c := range bad {
		if _, err := New(c[0], c[1], c[2], nil); err == nil {
			t.Errorf("New(%v) succeeded, want error", c)
		}
	}
	if _, err := New(128, 8, 4, nil); err != nil {
		t.Errorf("New(128,8,4) = %v", err)
	}
	// Degenerate but legal: one line, whole-line sub-block.
	if _, err := New(16, 16, 16, nil); err != nil {
		t.Errorf("New(16,16,16) = %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, 128, 16, 4)
	if c.Lookup(0x40) {
		t.Fatal("cold lookup hit")
	}
	c.FillSub(0x40)
	if !c.Lookup(0x40) {
		t.Fatal("lookup after fill missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestSubBlockGranularity(t *testing.T) {
	c := mustNew(t, 128, 16, 4)
	c.FillSub(0x40)
	// Same line, different sub-block: still a miss.
	if c.Present(0x44) {
		t.Error("neighbouring sub-block valid after single fill")
	}
	if c.LinePresent(0x40) {
		t.Error("line reported fully present after one sub-block fill")
	}
	for a := uint32(0x40); a < 0x50; a += 4 {
		c.FillSub(a)
	}
	if !c.LinePresent(0x40) || !c.LinePresent(0x4C) {
		t.Error("line not present after filling all sub-blocks")
	}
}

func TestFillLine(t *testing.T) {
	c := mustNew(t, 128, 16, 4)
	c.FillLine(0x23) // unaligned address within the line
	for a := uint32(0x20); a < 0x30; a += 4 {
		if !c.Present(a) {
			t.Errorf("addr %#x not present after FillLine", a)
		}
	}
	if c.Present(0x30) || c.Present(0x1C) {
		t.Error("FillLine leaked into a neighbouring line")
	}
}

func TestConflictEviction(t *testing.T) {
	c := mustNew(t, 128, 16, 4) // 8 lines; addresses 128 apart conflict
	c.FillLine(0x00)
	if !c.Present(0x00) {
		t.Fatal("fill failed")
	}
	c.FillSub(0x80) // same index, different tag: evicts line 0's contents
	if c.Present(0x00) {
		t.Error("old tag still present after conflict fill")
	}
	if !c.Present(0x80) {
		t.Error("new sub-block absent")
	}
	if c.Present(0x84) {
		t.Error("unfilled sub-block of new tag valid")
	}
}

func TestTagIndexSeparation(t *testing.T) {
	c := mustNew(t, 64, 8, 4) // 8 lines of 8 bytes
	// 0x08 and 0x48 differ in tag, same index (0x48/8 = 9, 9%8 = 1).
	c.FillLine(0x08)
	if c.Present(0x48) {
		t.Error("different tag matched")
	}
	// 0x08 and 0x10 are different indices; both can be resident.
	c.FillLine(0x10)
	if !c.Present(0x08) || !c.Present(0x10) {
		t.Error("distinct indices evicted each other")
	}
}

func TestLookupLineCounts(t *testing.T) {
	c := mustNew(t, 64, 8, 4)
	if c.LookupLine(0x18) {
		t.Fatal("cold line lookup hit")
	}
	c.FillLine(0x18)
	if !c.LookupLine(0x18) {
		t.Fatal("line lookup after fill missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestPresentDoesNotCount(t *testing.T) {
	c := mustNew(t, 64, 8, 4)
	c.Present(0)
	c.LinePresent(0)
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("Present touched the counters")
	}
}

func TestReset(t *testing.T) {
	c := mustNew(t, 64, 8, 4)
	c.FillLine(0x18)
	c.Lookup(0x18)
	c.Reset()
	if c.Present(0x18) {
		t.Error("entry survived Reset")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("counters survived Reset")
	}
}

func TestLineAddr(t *testing.T) {
	c := mustNew(t, 128, 16, 4)
	cases := map[uint32]uint32{0: 0, 0x13: 0x10, 0x1F: 0x10, 0x20: 0x20}
	for in, want := range cases {
		if got := c.LineAddr(in); got != want {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", in, got, want)
		}
	}
}

// TestQuickPresenceMatchesReference compares the cache against a map-based
// reference model under random fill/probe sequences.
func TestQuickPresenceMatchesReference(t *testing.T) {
	f := func(ops []uint16, cfgPick uint8) bool {
		cfgs := [][3]int{{64, 8, 4}, {128, 16, 4}, {256, 32, 4}, {32, 8, 8}}
		cfg := cfgs[int(cfgPick)%len(cfgs)]
		c, err := New(cfg[0], cfg[1], cfg[2], nil)
		if err != nil {
			return false
		}
		line := uint32(cfg[1])
		sub := uint32(cfg[2])
		nLines := uint32(cfg[0] / cfg[1])
		// Reference validity is tracked per sub-block (a fill makes the
		// whole sub-block containing the address valid).
		ref := map[int]map[uint32]bool{} // index -> {sub-block addr: valid}
		refTag := map[int]uint32{}
		for _, op := range ops {
			addr := uint32(op) &^ 3 // word-aligned, 16-bit space
			idx := int(addr / line % nLines)
			tag := addr / line / nLines
			key := addr &^ (sub - 1)
			switch op % 3 {
			case 0: // FillSub
				c.FillSub(addr)
				if refTag[idx] != tag || ref[idx] == nil {
					ref[idx] = map[uint32]bool{}
					refTag[idx] = tag
				}
				ref[idx][key] = true
			case 1: // FillLine
				c.FillLine(addr)
				ref[idx] = map[uint32]bool{}
				refTag[idx] = tag
				base := addr &^ (line - 1)
				for a := base; a < base+line; a += sub {
					ref[idx][a] = true
				}
			case 2: // probe
				want := ref[idx] != nil && refTag[idx] == tag && ref[idx][key]
				if c.Present(addr) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
