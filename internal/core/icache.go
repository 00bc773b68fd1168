package core

import (
	"fmt"
	"math/bits"

	"oltpsim/internal/simmem"
)

// icache is one core's L1I, used only by FetchCode. It behaves exactly like
// Cache (true LRU, same set mapping; TestICacheMatchesCache holds it to that)
// but neither searches a set nor moves tags. It can because it holds nothing
// but code lines, a small dense range: where answers hit/miss and which way
// in one load, a line keeps its way while resident, and a set's recency
// order is one word of 4-bit lanes — hence at most 16 ways.
type icache struct {
	sets, ways uint64
	setMask    uint64 // sets-1 when pow2, as in Cache
	pow2       bool
	top        uint   // bit offset of the LRU lane, 4*(ways-1)
	lanes      uint64 // mask of the lanes in use, 0..ways-1
	// where[line-icacheBase] is the way+1 holding that line, 0 when it is
	// not resident. Grown as code is first fetched (grow).
	where []uint8
	// slot[set*ways+way] is the resident line's where-index+1, 0 when empty.
	slot []uint64
	// order[set], lane r (bits 4r..4r+3), is the way at recency rank r: lane 0
	// the MRU way, lane ways-1 the LRU way and next victim; lanes above stay 0.
	order []uint64
}

const (
	icacheBase  = uint64(simmem.CodeBase) >> LineShift
	icacheLimit = uint64(simmem.DataBase)>>LineShift - icacheBase
	laneOnes    = 0x1111111111111111
)

func newICache(g CacheGeom) *icache {
	sets := g.Sets()
	if sets <= 0 || g.Assoc > 16 {
		panic("core: the L1I needs at least one set and at most 16 ways (its LRU order is one 64-bit word of 4-bit lanes)")
	}
	c := &icache{
		sets: uint64(sets), ways: uint64(g.Assoc),
		setMask: uint64(sets - 1), pow2: sets&(sets-1) == 0,
		top: 4 * uint(g.Assoc-1), lanes: ^uint64(0) >> (64 - 4*uint(g.Assoc)),
		slot: make([]uint64, sets*g.Assoc), order: make([]uint64, sets),
	}
	for s := range c.order {
		// Way r at rank r: empty ways are victimised before any resident
		// line, as Cache's zero tags at the LRU end of a set are.
		c.order[s] = 0xfedcba9876543210 & c.lanes
	}
	return c
}

// touch looks up line, makes it the MRU of its set — filling it over the LRU
// way on a miss — and reports whether it hit: Cache.Access and
// Cache.FillQuiet without the counters.
func (c *icache) touch(line uint64) bool {
	idx := line - icacheBase
	if idx >= uint64(len(c.where)) {
		c.grow(idx)
	}
	set := line & c.setMask
	if !c.pow2 {
		set = line % c.sets
	}
	ord := c.order[set]
	if w := uint64(c.where[idx]); w != 0 {
		if w--; ord&0xf != w {
			// w's lane is the lowest zero nibble of ord^(w in every lane);
			// unused lanes can only match above it. Slide the lanes below it
			// up one and put w in lane 0.
			x := ord ^ w*laneOnes
			at := uint(bits.TrailingZeros64((x-laneOnes)&^x&(laneOnes<<3))) &^ 3
			below := uint64(1)<<at - 1
			c.order[set] = ord&^(below<<4|0xf) | ord&below<<4 | w
		}
		return true
	}
	// Miss: the last lane's way is the victim; rotate it round to lane 0.
	v := ord >> c.top
	c.order[set] = ord<<4&c.lanes | v
	s := &c.slot[set*c.ways+v]
	if *s != 0 {
		c.where[*s-1] = 0
	}
	*s = idx + 1
	c.where[idx] = uint8(v + 1)
	return false
}

// grow extends where to cover idx, once per new highest code line. A line
// outside the code segment (below it, idx has wrapped) is a caller's bug;
// indexing 2^40 lines to hide it is the alternative.
func (c *icache) grow(idx uint64) {
	if idx >= icacheLimit {
		panic(fmt.Sprintf("core: instruction fetch at %#x is outside the code segment [%#x, %#x)",
			(idx+icacheBase)<<LineShift, uint64(simmem.CodeBase), uint64(simmem.DataBase)))
	}
	c.where = append(c.where, make([]uint8, idx+1-uint64(len(c.where)))...) //oltpsim:coldpath once per new highest code line
}
