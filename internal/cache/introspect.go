package cache

// This file is the cache-introspection core: the shadow models that
// classify every miss of the real direct-mapped array as compulsory,
// capacity or conflict (the standard 3C method), plus the per-set
// access/miss/eviction heatmap, dead-on-eviction tracking and the hot
// miss-PC table.
//
// Two shadow structures observe the engine's demand reference stream at
// line granularity:
//
//   - an infinite cache (the set of every line address ever referenced):
//     a miss on a never-seen line is compulsory — no finite cache avoids
//     it;
//   - a fully-associative LRU cache of the same capacity and line size:
//     a real-array miss that this shadow would have hit is a conflict of
//     the direct-mapped placement; a miss in both is a capacity miss.
//
// The shadows are fed from the fetch engines' own hit/miss accounting
// points (not from the array's Lookup counters), so the per-class counts
// sum exactly to the engine's CacheMisses statistic by construction.
//
// All three per-address tables (the seen set, the FA shadow's index and
// the hot miss-PC counts) are dense slices indexed by line number or byte
// address, not maps: the text segment starts at address 0 and the
// Livermore text is a few KiB, so a reference costs a bounds check and an
// indexed load. The slices are sized to the text at construction and grow
// on demand, so a reference past the text (a wild branch, a synthetic test
// stream) takes the same path. The
// introspector is purely observational: it never influences the array or
// the engines, so cycle counts are bit-identical with introspection on or
// off.

import (
	"sort"

	"pipesim/internal/stats"
)

// Introspector classifies the misses of one cache array and accumulates
// the attribution tables. It is single-goroutine, like the simulator core
// that drives it.
type Introspector struct {
	lineBytes uint32
	nLines    uint32

	seen []bool // infinite shadow: seen[n] once line n has been referenced
	fa   faLRU  // equal-size fully-associative LRU shadow

	sets    []stats.CacheSetStats
	lineHit []bool // resident line of each set has hit since its fill

	classes   [stats.NumMissClasses]uint64
	evictions uint64
	dead      uint64

	hot    []uint64 // hot[pc]: misses at byte address pc
	hotPCs int      // distinct PCs with a nonzero hot count
	topN   int

	// OnEvict, when set, observes every eviction of the real array:
	// the set index, the displaced line address, and whether the line was
	// dead (never referenced after its fill). The simulator core wires it
	// to emit obs.KindCacheEvict probe events.
	OnEvict func(set int, lineAddr uint32, dead bool)
}

// NewIntrospector builds an introspector for a direct-mapped cache of the
// given geometry. topN bounds the hot miss-PC table returned by Stats
// (<= 0 keeps every PC). textBytes sizes the dense tables for the text
// segment [0, textBytes) up front; references past it grow them.
func NewIntrospector(sizeBytes, lineBytes, topN int, textBytes uint32) *Introspector {
	nLines := sizeBytes / lineBytes
	textLines := (textBytes + uint32(lineBytes) - 1) / uint32(lineBytes)
	in := &Introspector{
		lineBytes: uint32(lineBytes),
		nLines:    uint32(nLines),
		seen:      make([]bool, textLines),
		sets:      make([]stats.CacheSetStats, nLines),
		lineHit:   make([]bool, nLines),
		hot:       make([]uint64, textBytes),
		topN:      topN,
	}
	in.fa.init(nLines, textLines)
	return in
}

// Reference observes one demand reference of the fetch engine at its own
// hit/miss accounting point and returns the miss class (MissUnclassified
// for a hit). Both shadows see every reference — hits included — so the
// fully-associative shadow's LRU order tracks true recency.
func (in *Introspector) Reference(addr uint32, hit bool) stats.MissClass {
	line := addr / in.lineBytes
	set := int(line % in.nLines)
	s := &in.sets[set]
	s.Accesses++
	class := stats.MissUnclassified
	if line >= uint32(len(in.seen)) {
		in.seen = grow(in.seen, line)
	}
	seen := in.seen[line]
	if hit {
		in.lineHit[set] = true
	} else {
		s.Misses++
		if addr >= uint32(len(in.hot)) {
			in.hot = grow(in.hot, addr)
		}
		if in.hot[addr] == 0 {
			in.hotPCs++
		}
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
	in.seen[line] = true
	in.fa.reference(line)
	return class
}

// grow extends s with zero values so that index i is valid, at least
// doubling it so that a run of references past the text costs a handful
// of copies.
func grow[T any](s []T, i uint32) []T {
	n := max(int(i)+1, 2*len(s))
	return append(s, make([]T, n-len(s))...)
}

// TrackFill records that the array claimed frame `set` for a new tag,
// displacing the resident line at oldLine when evicted is true. Called by
// Cache.FillSub/FillLine on their tag-change branch.
func (in *Introspector) TrackFill(set int, evicted bool, oldLine uint32) {
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
func (in *Introspector) Classes() [stats.NumMissClasses]uint64 { return in.classes }

// Stats snapshots the collected attribution into a plain-data block: the
// class totals, the per-set heatmap, eviction counts and the hot miss PCs
// sorted by miss count (descending, ties by ascending PC), truncated to
// the configured top N.
func (in *Introspector) Stats() *stats.CacheStats {
	out := &stats.CacheStats{
		Compulsory:    in.classes[stats.MissCompulsory],
		Capacity:      in.classes[stats.MissCapacity],
		Conflict:      in.classes[stats.MissConflict],
		Evictions:     in.evictions,
		DeadEvictions: in.dead,
		Sets:          append([]stats.CacheSetStats(nil), in.sets...),
	}
	if in.hotPCs > 0 {
		pcs := make([]stats.CacheHotPC, 0, in.hotPCs)
		for pc, n := range in.hot {
			if n > 0 {
				pcs = append(pcs, stats.CacheHotPC{PC: uint32(pc), Misses: n})
			}
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

// faLRU is the fully-associative LRU shadow: a dense line-number index
// plus an index-linked circular list (node 0 is the sentinel), with the
// list preallocated to the cache's line count so steady-state references
// allocate nothing.
type faLRU struct {
	cap   int
	size  int
	index []int32  // index[n]: node holding line n, 0 when not resident
	nodes []faNode // nodes[0] is the sentinel; head.next = MRU, head.prev = LRU
	free  []int32
}

type faNode struct {
	prev, next int32
	line       uint32
}

func (l *faLRU) init(capacity int, lines uint32) {
	if capacity < 1 {
		capacity = 1
	}
	l.cap = capacity
	l.index = make([]int32, lines)
	l.nodes = make([]faNode, 1, capacity+1)
	l.nodes[0] = faNode{prev: 0, next: 0}
}

// contains reports whether line is resident, without touching recency.
func (l *faLRU) contains(line uint32) bool {
	return line < uint32(len(l.index)) && l.index[line] != 0
}

// reference touches line as most recently used, inserting it (and evicting
// the LRU line if full) when absent.
func (l *faLRU) reference(line uint32) {
	if line >= uint32(len(l.index)) {
		l.index = grow(l.index, line)
	}
	if i := l.index[line]; i != 0 {
		l.unlink(i)
		l.pushFront(i)
		return
	}
	if l.size >= l.cap {
		lru := l.nodes[0].prev
		l.unlink(lru)
		l.index[l.nodes[lru].line] = 0
		l.free = append(l.free, lru)
		l.size--
	}
	var i int32
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
		l.nodes[i].line = line
	} else {
		i = int32(len(l.nodes))
		l.nodes = append(l.nodes, faNode{line: line})
	}
	l.index[line] = i
	l.size++
	l.pushFront(i)
}

func (l *faLRU) unlink(i int32) {
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

func (l *faLRU) pushFront(i int32) {
	head := &l.nodes[0]
	n := &l.nodes[i]
	n.prev, n.next = 0, head.next
	l.nodes[head.next].prev = i
	head.next = i
}
