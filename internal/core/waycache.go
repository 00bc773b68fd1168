package core

import (
	"math/bits"

	"oltpsim/internal/simmem"
)

// wayCache is a set-associative true-LRU cache that gives exactly Cache's
// answers — same set mapping, same replacement, same evicted tags and
// counters; TestICacheMatchesCache and TestL2MatchesCache hold it to that —
// without moving a tag: a resident line keeps its way, and a set's recency
// order is one word of 4-bit lanes, hence at most 16 ways. Each core's L1I
// and unified L2 are wayCaches, because instruction fetch is where the paper
// finds OLTP's stalls and where the simulator spends most of its host time:
// a code line, from the small dense code segment below simmem.CodeLimit, is
// found in one load through where; FetchCode inlines each lookup's steps
// (touch, victim) over state it hoists once per call, and the only other
// code-line caller is fill, the tests' way in. A data line (the L2 holds
// both) is found by scanning its set's slots in place, through fill. The
// L1D and the 20-way LLC stay on Cache.
type wayCache struct {
	sets, ways uint64
	setMask    uint64 // sets-1 when pow2, as in Cache
	pow2       bool
	top        uint   // bit offset of the LRU lane, 4*(ways-1)
	lanes      uint64 // mask of the lanes in use, 0..ways-1
	// where[line-codeLineBase] is the way+1 holding that code line, 0 when it
	// is not resident. Grown to cover each fetch run and its prefetch tail
	// (cover), never past codeLineLimit. A code line that leaves — displaced
	// by any fill, or invalidated — clears its byte.
	where []uint8
	// slot[set*ways+way] is the resident line's ID+1, 0 when the way is empty.
	slot []uint64
	// order[set], lane r (bits 4r..4r+3), is the way at recency rank r: lane 0
	// the MRU way, lane ways-1 the LRU way and next victim; lanes above stay 0.
	// Empty ways hold the highest lanes, as Cache's zero tags sit at the LRU
	// end of a set.
	order []uint64

	stats [numClasses]CacheStats
}

const (
	codeLineBase  = uint64(simmem.CodeBase) >> LineShift
	codeLineLimit = uint64(simmem.CodeLimit)>>LineShift - codeLineBase
	laneOnes      = 0x1111111111111111
)

// newWayCache builds the wayCache for the named level ("L1I", "L2").
func newWayCache(level string, g CacheGeom) *wayCache {
	sets := g.Sets()
	if sets <= 0 || g.Assoc > 16 {
		panic("core: the " + level + " needs at least one set and at most 16 ways (its LRU order is one 64-bit word of 4-bit lanes)")
	}
	c := &wayCache{
		sets: uint64(sets), ways: uint64(g.Assoc),
		setMask: uint64(sets - 1), pow2: sets&(sets-1) == 0,
		top: 4 * uint(g.Assoc-1), lanes: ^uint64(0) >> (64 - 4*uint(g.Assoc)),
		slot: make([]uint64, sets*g.Assoc), order: make([]uint64, sets),
	}
	for s := range c.order {
		// Way r at rank r: every way starts empty.
		c.order[s] = 0xfedcba9876543210 & c.lanes
	}
	return c
}

// The lane arithmetic: every change to an order word is promote,
// rotateVictim or demote.

// laneOf returns the bit offset of way w's lane in ord: the lowest zero
// nibble of ord^(w in every lane). Unused lanes can only match above it.
func laneOf(ord, w uint64) uint {
	x := ord ^ w*laneOnes
	return uint(bits.TrailingZeros64((x-laneOnes)&^x&(laneOnes<<3))) &^ 3
}

// promote returns ord with way w moved to lane 0 (MRU); the lanes below its
// old lane slide up one rank.
func promote(ord, w uint64) uint64 {
	upTo := uint64(16)<<laneOf(ord, w) - 1 // lanes 0..w's
	return ord&^upTo | ord<<4&upTo | w
}

// rotateVictim returns ord with its LRU lane (bit offset top) rotated round
// to lane 0, and the way that lane holds: the victim, now the MRU.
func rotateVictim(ord uint64, top uint, lanes uint64) (uint64, uint64) {
	v := ord >> top
	return ord<<4&lanes | v, v
}

// demote returns ord with way w moved to the LRU lane (bit offset top); the
// lanes above its old lane slide down one rank.
func demote(ord, w uint64, top uint) uint64 {
	at := laneOf(ord, w)
	return ord&(uint64(1)<<at-1) | ord>>(at+4)<<at | w<<top
}

func (c *wayCache) setOf(line uint64) uint64 {
	return setIndex(line, c.setMask, c.sets, c.pow2)
}

// setIndex is line's set among sets: a mask (sets-1) when pow2, as in Cache,
// and a modulo otherwise. FetchCode hoists the four arguments out of its walk.
func setIndex(line, mask, sets uint64, pow2 bool) uint64 {
	if pow2 {
		return line & mask
	}
	return line % sets
}

// fill looks up line and makes it the MRU of its set, filling it over the
// LRU way on a miss; it reports whether it hit and the tag (line ID+1) the
// fill displaced, 0 for a hit or an empty way. It counts nothing (count
// does). The data path calls it for data lines; for a code line it takes
// the steps FetchCode's walk takes.
func (c *wayCache) fill(line uint64) (hit bool, evicted uint64) {
	idx := line - codeLineBase
	if idx >= codeLineLimit {
		// A data line (the L2's): scan the set's slots in place.
		set, w, ok := c.find(line)
		ord := c.order[set]
		if ok {
			touch(c.order, set, ord, w)
			return true, 0
		}
		evicted = c.slot[set*c.ways+ord>>c.top]
		victim(c.where, c.order, c.slot, set, ord, c.ways, c.top, c.lanes, line+1)
		return false, evicted
	}
	c.cover(idx + 1)
	set := c.setOf(line)
	ord := c.order[set]
	if w := uint64(c.where[idx]); w != 0 {
		touch(c.order, set, ord, w-1)
		return true, 0
	}
	evicted = c.slot[set*c.ways+ord>>c.top]
	c.where[idx] = uint8(victim(c.where, c.order, c.slot, set, ord, c.ways, c.top, c.lanes, line+1)) + 1
	return false, evicted
}

// cover grows where to cover the first n code lines.
func (c *wayCache) cover(n uint64) {
	if n > uint64(len(c.where)) {
		c.grow(n - 1)
	}
}

// A lookup is one of two steps, each small enough for the compiler to
// inline (a lookup as one function is not): a resident line's way becomes
// the MRU (touch), a missing line takes the LRU way (victim), and a code
// line's where byte then names that way. A code line is found through where,
// a data line by find. Their arguments are plain values and slices, so
// FetchCode's walk hoists them once per call.

// touch makes way w the MRU of set, whose order word order[set] is ord:
// promote, unless w is the MRU already.
func touch(order []uint64, set, ord, w uint64) {
	if ord&0xf != w {
		order[set] = promote(ord, w)
	}
}

// victim puts tag (a line ID+1) in the LRU way of set, whose order word is
// ord, makes that way the MRU and returns it, in the wayCache whose where,
// order and slot these are (ways, top and lanes its geometry); the code line
// it displaces, if any, leaves where.
func victim(where []uint8, order, slot []uint64, set, ord, ways uint64, top uint, lanes, tag uint64) (way uint64) {
	order[set], way = rotateVictim(ord, top, lanes)
	s := &slot[set*ways+way]
	if i := *s - (codeLineBase + 1); i < uint64(len(where)) {
		where[i] = 0
	}
	*s = tag
	return way
}

// grow extends where to cover code line index idx, once per new highest
// code line. Kept out of line: inlined, its append would spill registers on
// every call of its callers.
//
//go:noinline
func (c *wayCache) grow(idx uint64) {
	c.where = append(c.where, make([]uint8, idx+1-uint64(len(c.where)))...) //oltpsim:coldpath once per new highest code line
}

// find returns line's set and, when it is resident, its way, scanning the
// set: code lookups go through where instead.
func (c *wayCache) find(line uint64) (set, way uint64, ok bool) {
	set = c.setOf(line)
	base := set * c.ways
	for w, t := range c.slot[base : base+c.ways] {
		if t == line+1 {
			return set, uint64(w), true
		}
	}
	return set, 0, false
}

// count records a lookup of class that fill answered: fill then count is
// Cache.AccessEvict (and Cache.Access), fill alone Cache.FillQuietEvict (and
// Cache.FillQuiet). The hierarchy makes the two calls itself; a wrapper
// around them does not inline and costs the data path's L2 hit a call
// (about 1.5 ns, BenchmarkDataAccess/serial/L2hit).
func (c *wayCache) count(class AccessClass, hit bool) {
	st := &c.stats[class]
	st.Accesses++
	if !hit {
		st.Misses++
	}
}

// Probe is Cache.Probe.
func (c *wayCache) Probe(line uint64) bool {
	_, _, ok := c.find(line)
	return ok
}

// Invalidate is Cache.Invalidate: the way empties and takes the LRU lane,
// where Cache leaves its empty tag.
func (c *wayCache) Invalidate(line uint64) bool {
	set, w, ok := c.find(line)
	if !ok {
		return false
	}
	c.order[set] = demote(c.order[set], w, c.top)
	c.slot[set*c.ways+w] = 0
	if i := line - codeLineBase; i < uint64(len(c.where)) {
		c.where[i] = 0
	}
	return true
}

// Lines is Cache.Lines.
func (c *wayCache) Lines(visit func(lineID uint64)) {
	for _, t := range c.slot {
		if t != 0 {
			visit(t - 1)
		}
	}
}

// Stats is Cache.Stats.
func (c *wayCache) Stats(class AccessClass) CacheStats { return c.stats[class] }
