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
// a code line, from the small dense code segment, is found in one load
// through where. A data line (the L2 holds both) is found by scanning its
// set's slots in place. The L1D and the 20-way LLC stay on Cache.
type wayCache struct {
	sets, ways uint64
	setMask    uint64 // sets-1 when pow2, as in Cache
	pow2       bool
	top        uint   // bit offset of the LRU lane, 4*(ways-1)
	lanes      uint64 // mask of the lanes in use, 0..ways-1
	// where[line-codeLineBase] is the way+1 holding that code line, 0 when it
	// is not resident. Grown as code is first filled (grow). A code line that
	// leaves — displaced by any fill, or invalidated — clears its byte.
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
	codeLineLimit = uint64(simmem.DataBase)>>LineShift - codeLineBase
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
	below := uint64(1)<<laneOf(ord, w) - 1
	return ord&^(below<<4|0xf) | ord&below<<4 | w
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
	if c.pow2 {
		return line & c.setMask
	}
	return line % c.sets
}

// fill looks up line and makes it the MRU of its set, filling it over the
// LRU way on a miss; it reports whether it hit and the tag (line ID+1) the
// fill displaced, 0 for a hit or an empty way. It counts nothing (count
// does): FetchCode calls it for every L1I lookup and keeps those counters
// itself, and an increment here costs the all-hit walk
// (BenchmarkFetchCode/HyPer) about a tenth of its time.
func (c *wayCache) fill(line uint64) (hit bool, evicted uint64) {
	idx := line - codeLineBase
	if idx >= uint64(len(c.where)) {
		if idx >= codeLineLimit {
			// A data line (the L2's): scan the set's slots in place.
			set, w, ok := c.find(line)
			ord := c.order[set]
			if ok {
				if w != ord&0xf {
					c.order[set] = promote(ord, w)
				}
				return true, 0
			}
			_, evicted = c.replace(set, ord, line+1)
			return false, evicted
		}
		c.grow(idx)
	}
	set := c.setOf(line)
	ord := c.order[set]
	if w := uint64(c.where[idx]); w != 0 {
		if w--; ord&0xf != w {
			c.order[set] = promote(ord, w)
		}
		return true, 0
	}
	v, evicted := c.replace(set, ord, line+1)
	c.where[idx] = uint8(v + 1)
	return false, evicted
}

// replace puts tag in the LRU way of set (whose order word is ord) and makes
// it the MRU, returning the way and the tag it displaced; a displaced code
// line leaves where.
func (c *wayCache) replace(set, ord, tag uint64) (way, evicted uint64) {
	c.order[set], way = rotateVictim(ord, c.top, c.lanes)
	s := &c.slot[set*c.ways+way]
	evicted, *s = *s, tag
	if i := evicted - 1 - codeLineBase; i < uint64(len(c.where)) {
		c.where[i] = 0
	}
	return way, evicted
}

// grow extends where to cover code line index idx, once per new highest
// code line. Kept out of line: inlined, its append would spill registers on
// fill's every call.
//
//go:noinline
func (c *wayCache) grow(idx uint64) {
	c.where = append(c.where, make([]uint8, idx+1-uint64(len(c.where)))...) //oltpsim:coldpath once per new highest code line
}

// find returns line's set and, when it is resident, its way, scanning the
// set: code lookups that are hot enough to want where go through fill.
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
