package cache_test

// The naive reference model for the introspector: the original map-based
// shadows, kept verbatim apart from the renamed identifiers. The dense
// production tables in introspect.go must classify, count and rank exactly
// as these maps do; TestIntrospectorMatchesReference checks that on seeded
// random reference streams over every catalog geometry.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pipesim/internal/cache"
	"pipesim/internal/stats"
	"pipesim/internal/sweep"
)

// refIntrospector classifies the misses of one cache array and accumulates
// the attribution tables. It is single-goroutine, like the simulator core
// that drives it.
type refIntrospector struct {
	lineBytes uint32
	nLines    uint32

	seen map[uint32]struct{} // infinite shadow: line addresses ever referenced
	fa   refFALRU            // equal-size fully-associative LRU shadow

	sets    []stats.CacheSetStats
	lineHit []bool // resident line of each set has hit since its fill

	classes   [stats.NumMissClasses]uint64
	evictions uint64
	dead      uint64

	hot  map[uint32]uint64 // miss PC -> miss count
	topN int

	// OnEvict, when set, observes every eviction of the real array:
	// the set index, the displaced line address, and whether the line was
	// dead (never referenced after its fill). The simulator core wires it
	// to emit obs.KindCacheEvict probe events.
	OnEvict func(set int, lineAddr uint32, dead bool)
}

// newRefIntrospector builds an introspector for a direct-mapped cache of the
// given geometry. topN bounds the hot miss-PC table returned by Stats
// (<= 0 keeps every PC).
func newRefIntrospector(sizeBytes, lineBytes, topN int) *refIntrospector {
	nLines := sizeBytes / lineBytes
	in := &refIntrospector{
		lineBytes: uint32(lineBytes),
		nLines:    uint32(nLines),
		seen:      make(map[uint32]struct{}),
		sets:      make([]stats.CacheSetStats, nLines),
		lineHit:   make([]bool, nLines),
		hot:       make(map[uint32]uint64),
		topN:      topN,
	}
	in.fa.init(nLines)
	return in
}

// set returns the direct-mapped frame index of addr.
func (in *refIntrospector) set(addr uint32) int {
	return int((addr / in.lineBytes) % in.nLines)
}

// Reference observes one demand reference of the fetch engine at its own
// hit/miss accounting point and returns the miss class (MissUnclassified
// for a hit). Both shadows see every reference — hits included — so the
// fully-associative shadow's LRU order tracks true recency.
func (in *refIntrospector) Reference(addr uint32, hit bool) stats.MissClass {
	line := addr - addr%in.lineBytes
	set := in.set(addr)
	s := &in.sets[set]
	s.Accesses++
	class := stats.MissUnclassified
	_, seen := in.seen[line]
	if hit {
		in.lineHit[set] = true
	} else {
		s.Misses++
		in.hot[addr]++
		switch {
		case !seen:
			class = stats.MissCompulsory
		case in.fa.contains(line):
			class = stats.MissConflict
		default:
			class = stats.MissCapacity
		}
		in.classes[class]++
	}
	if !seen {
		in.seen[line] = struct{}{}
	}
	in.fa.reference(line)
	return class
}

// TrackFill records that the array claimed frame `set` for a new tag,
// displacing the resident line at oldLine when evicted is true. Called by
// Cache.FillSub/FillLine on their tag-change branch.
func (in *refIntrospector) TrackFill(set int, evicted bool, oldLine uint32) {
	if evicted {
		dead := !in.lineHit[set]
		in.evictions++
		in.sets[set].Evictions++
		if dead {
			in.dead++
			in.sets[set].DeadEvictions++
		}
		if in.OnEvict != nil {
			in.OnEvict(set, oldLine, dead)
		}
	}
	in.lineHit[set] = false
}

// Classes returns the per-class miss totals accumulated so far.
func (in *refIntrospector) Classes() [stats.NumMissClasses]uint64 { return in.classes }

// Stats snapshots the collected attribution into a plain-data block: the
// class totals, the per-set heatmap, eviction counts and the hot miss PCs
// sorted by miss count (descending, ties by ascending PC), truncated to
// the configured top N.
func (in *refIntrospector) Stats() *stats.CacheStats {
	out := &stats.CacheStats{
		Compulsory:    in.classes[stats.MissCompulsory],
		Capacity:      in.classes[stats.MissCapacity],
		Conflict:      in.classes[stats.MissConflict],
		Evictions:     in.evictions,
		DeadEvictions: in.dead,
		Sets:          append([]stats.CacheSetStats(nil), in.sets...),
	}
	if len(in.hot) > 0 {
		pcs := make([]stats.CacheHotPC, 0, len(in.hot))
		for pc, n := range in.hot {
			pcs = append(pcs, stats.CacheHotPC{PC: pc, Misses: n})
		}
		sort.Slice(pcs, func(i, j int) bool {
			if pcs[i].Misses != pcs[j].Misses {
				return pcs[i].Misses > pcs[j].Misses
			}
			return pcs[i].PC < pcs[j].PC
		})
		if in.topN > 0 && len(pcs) > in.topN {
			pcs = pcs[:in.topN]
		}
		out.HotPCs = pcs
	}
	return out
}

// refFALRU is the fully-associative LRU shadow: a map plus an index-linked
// circular list (node 0 is the sentinel), preallocated to the cache's
// line count so steady-state references allocate nothing.
type refFALRU struct {
	cap   int
	index map[uint32]int
	nodes []refFANode // nodes[0] is the sentinel; head.next = MRU, head.prev = LRU
	free  []int
}

type refFANode struct {
	prev, next int
	addr       uint32
}

func (l *refFALRU) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	l.cap = capacity
	l.index = make(map[uint32]int, capacity)
	l.nodes = make([]refFANode, 1, capacity+1)
	l.nodes[0] = refFANode{prev: 0, next: 0}
}

// contains reports whether line is resident, without touching recency.
func (l *refFALRU) contains(line uint32) bool {
	_, ok := l.index[line]
	return ok
}

// reference touches line as most recently used, inserting it (and evicting
// the LRU line if full) when absent.
func (l *refFALRU) reference(line uint32) {
	if i, ok := l.index[line]; ok {
		l.unlink(i)
		l.pushFront(i)
		return
	}
	if len(l.index) >= l.cap {
		lru := l.nodes[0].prev
		l.unlink(lru)
		delete(l.index, l.nodes[lru].addr)
		l.free = append(l.free, lru)
	}
	var i int
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
		l.nodes[i].addr = line
	} else {
		i = len(l.nodes)
		l.nodes = append(l.nodes, refFANode{addr: line})
	}
	l.index[line] = i
	l.pushFront(i)
}

func (l *refFALRU) unlink(i int) {
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

func (l *refFALRU) pushFront(i int) {
	head := &l.nodes[0]
	n := &l.nodes[i]
	n.prev, n.next = 0, head.next
	l.nodes[head.next].prev = i
	head.next = i
}

// catalogGeometries lists every (cache bytes, line bytes) pair the paper
// catalog simulates with introspection: the figure cache-size axis crossed
// with the Table II line sizes and the conventional cache's line.
func catalogGeometries() [][2]int {
	lines := map[int]bool{sweep.ConvLineBytes: true}
	for _, v := range sweep.TableII {
		lines[v.Line] = true
	}
	var out [][2]int
	for _, size := range sweep.CacheSizes {
		for line := range lines {
			if line <= size {
				out = append(out, [2]int{size, line})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// textBytes is the text size of the random reference streams: about the
// Livermore text (3,228 bytes). The streams walk it in loops, with
// occasional jumps anywhere in the 20-bit address space so the dense
// tables also grow past the text. Both the fixed (4-byte) and the native
// (2-byte) instruction alignments occur.
const textBytes = 4096

// evictRec is one OnEvict callback.
type evictRec struct {
	set  int
	line uint32
	dead bool
}

// TestIntrospectorMatchesReference drives the production introspector and
// the map-based reference model with one seeded stream per geometry and
// seed, through a direct-mapped array model that decides hits and fills
// the way the fetch engines do (demand misses fill, and prefetches fill
// lines nobody referenced yet). Every reference must get the same miss
// class, every eviction the same callback, and the final attribution
// tables — class totals, per-set heatmap, evictions and the hot-PC table
// at several top-N bounds (one per seed) — must be identical.
func TestIntrospectorMatchesReference(t *testing.T) {
	const refs = 20000
	for _, g := range catalogGeometries() {
		size, line := g[0], g[1]
		for i, topN := range []int{0, 1, 8} {
			seed := int64(i + 1)
			// The first seed starts the dense tables empty, the others
			// presize them to the text, as the simulator core does.
			presize := uint32(textBytes)
			if i == 0 {
				presize = 0
			}
			t.Run(fmt.Sprintf("%dB/%dB/seed%d/top%d/presize%d", size, line, seed, topN, presize), func(t *testing.T) {
				compareWithReference(t, size, line, topN, presize, seed, refs)
			})
		}
	}
}

func compareWithReference(t *testing.T, size, line, topN int, presize uint32, seed int64, refs int) {
	got := cache.NewIntrospector(size, line, topN, presize)
	want := newRefIntrospector(size, line, topN)
	var gotEv, wantEv []evictRec
	got.OnEvict = func(set int, l uint32, dead bool) { gotEv = append(gotEv, evictRec{set, l, dead}) }
	want.OnEvict = func(set int, l uint32, dead bool) { wantEv = append(wantEv, evictRec{set, l, dead}) }

	nLines := size / line
	tags := make([]uint32, nLines)
	valid := make([]bool, nLines)
	fill := func(addr uint32) {
		set := int(addr/uint32(line)) % nLines
		lineAddr := addr - addr%uint32(line)
		if valid[set] && tags[set] == lineAddr {
			return
		}
		got.TrackFill(set, valid[set], tags[set])
		want.TrackFill(set, valid[set], tags[set])
		tags[set], valid[set] = lineAddr, true
	}

	rng := rand.New(rand.NewSource(seed))
	pc := uint32(0)
	for i := 0; i < refs; i++ {
		switch r := rng.Intn(100); {
		case r < 70:
			pc += 4
		case r < 80:
			pc += 2
		case r < 95:
			pc = uint32(rng.Intn(textBytes/2)) * 2
		case r < 98:
			pc = uint32(rng.Intn(1<<20)) &^ 1
		default:
			fill(pc + uint32(line)) // prefetch the next line
			continue
		}
		set := int(pc/uint32(line)) % nLines
		hit := valid[set] && tags[set] == pc-pc%uint32(line)
		gc, wc := got.Reference(pc, hit), want.Reference(pc, hit)
		if gc != wc {
			t.Fatalf("reference %d (pc %#x, hit %v): class %v, reference model %v", i, pc, hit, gc, wc)
		}
		if !hit {
			fill(pc)
		}
	}
	if !reflect.DeepEqual(gotEv, wantEv) {
		t.Errorf("OnEvict sequences differ: %d vs %d callbacks", len(gotEv), len(wantEv))
	}
	if got.Classes() != want.Classes() {
		t.Errorf("Classes() = %v, reference model %v", got.Classes(), want.Classes())
	}
	gs, ws := got.Stats(), want.Stats()
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("Stats() differ:\n got  %+v\n want %+v", gs, ws)
	}
}
