package core

// AccessClass distinguishes instruction from data traffic in the per-level
// counters, mirroring the I/D split in the paper's stall breakdowns.
type AccessClass int

// Access classes.
const (
	ClassInstr AccessClass = iota
	ClassData
	numClasses
)

// CacheStats counts accesses and misses for one access class.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// Cache is a set-associative cache with true-LRU replacement. Lines are
// identified by line IDs (virtual address >> LineShift). The zero value is
// not usable; construct with NewCache. It serves every L1D and LLC. A core's
// L1I and L2 are wayCaches, the same policy without the search, and Cache is
// the reference they are tested against.
type Cache struct {
	geom CacheGeom
	sets int
	ways int
	// setMask is sets-1 when the set count is a power of two (the common
	// case, letting setIndex use a mask instead of a modulo); pow2 records
	// which path applies. Both are fixed at construction so the per-access
	// path never re-tests the geometry.
	setMask uint64
	pow2    bool
	// tags[set*ways+way] holds lineID+1; 0 means invalid. Within a set, way 0
	// is the most recently used and way ways-1 the least recently used, so a
	// hit moves the entry to the front of its set slice.
	tags []uint64

	stats [numClasses]CacheStats
}

// NewCache builds a cache with the given geometry. Non-power-of-two set
// counts are allowed (setIndex falls back to a modulo for them).
func NewCache(g CacheGeom) *Cache {
	sets := g.Sets()
	if sets <= 0 {
		panic("core: cache geometry yields no sets")
	}
	return &Cache{
		geom:    g,
		sets:    sets,
		ways:    g.Assoc,
		setMask: uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		tags:    make([]uint64, sets*g.Assoc),
	}
}

// Geom returns the cache geometry.
func (c *Cache) Geom() CacheGeom { return c.geom }

// Stats returns the access/miss counters for the given class.
func (c *Cache) Stats(class AccessClass) CacheStats { return c.stats[class] }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = [numClasses]CacheStats{} }

func (c *Cache) setIndex(lineID uint64) int {
	if c.pow2 {
		return int(lineID & c.setMask)
	}
	return int(lineID % uint64(c.sets))
}

// Access looks up lineID, filling it on a miss, and returns whether it hit.
// The counters for the given class are updated. The set is scanned and
// updated in place (one base computation per access, no move on an MRU hit).
//
// The body is duplicated in AccessEvict rather than delegated: the four
// bodies serve every L1D and LLC lookup (the L1I and L2 are wayCaches) and
// the call indirection costs ~2ns/op (a third of the whole scan). Any
// replacement-policy change must be applied to Access, AccessEvict, FillQuiet
// and FillQuietEvict together — and to wayCache's lane arithmetic (promote,
// rotateVictim, demote), which TestICacheMatchesCache, TestL2MatchesCache and
// FuzzFetchCode hold to these functions; FetchCode also relies on FillQuiet
// changing nothing for a line that already is the MRU of its set, and skips
// the call for one. The coherence invariant suite and the golden figure
// gates fail on any divergence between the coherent (Evict) and
// non-coherent paths.
//
//oltpsim:hotpath
func (c *Cache) Access(lineID uint64, class AccessClass) bool {
	c.stats[class].Accesses++
	tag := lineID + 1
	base := c.setIndex(lineID) * c.ways
	set := c.tags[base : base+c.ways]
	for i, t := range set {
		if t == tag {
			if i != 0 {
				copy(set[1:i+1], set[:i])
				set[0] = tag
			}
			return true
		}
	}
	c.stats[class].Misses++
	copy(set[1:], set[:c.ways-1])
	set[0] = tag
	return false
}

// AccessEvict is Access, additionally reporting the tag evicted by a miss
// fill: evicted is lineID+1 of the displaced line, or 0 when the access hit
// or the fill landed in an empty way (the coherence hierarchy uses it to
// keep the directory exact across evictions). The set is scanned and updated
// in place (one base computation per access, no move on an MRU hit).
//
//oltpsim:hotpath
func (c *Cache) AccessEvict(lineID uint64, class AccessClass) (hit bool, evicted uint64) {
	c.stats[class].Accesses++
	tag := lineID + 1
	base := c.setIndex(lineID) * c.ways
	set := c.tags[base : base+c.ways]
	for i, t := range set {
		if t == tag {
			if i != 0 {
				copy(set[1:i+1], set[:i])
				set[0] = tag
			}
			return true, 0
		}
	}
	c.stats[class].Misses++
	evicted = set[c.ways-1]
	copy(set[1:], set[:c.ways-1])
	set[0] = tag
	return false, evicted
}

// Probe reports whether lineID is resident without updating counters or LRU
// state. The data path calls it on every private-cache eviction
// (evictPrivate, inside readMiss and writeLine) and serveMiss on every
// remote-LLC lookup.
func (c *Cache) Probe(lineID uint64) bool {
	tag := lineID + 1
	base := c.setIndex(lineID) * c.ways
	set := c.tags[base : base+c.ways]
	for _, t := range set {
		if t == tag {
			return true
		}
	}
	return false
}

// atMRU reports whether lineID is the most recently used line of its set,
// where FillQuiet would change nothing; FetchCode tests it, inlined, before
// each prefetch fill.
func (c *Cache) atMRU(lineID uint64) bool {
	return c.tags[c.setIndex(lineID)*c.ways] == lineID+1
}

// FillQuiet inserts lineID without counting an access or miss. Used by the
// instruction prefetcher and the quiet store-allocate path. Like Access, the
// body is kept in lockstep with its Evict variant instead of delegating (see
// the Access comment for why).
func (c *Cache) FillQuiet(lineID uint64) {
	tag := lineID + 1
	base := c.setIndex(lineID) * c.ways
	set := c.tags[base : base+c.ways]
	for i, t := range set {
		if t == tag {
			if i != 0 {
				copy(set[1:i+1], set[:i])
				set[0] = tag
			}
			return
		}
	}
	copy(set[1:], set[:c.ways-1])
	set[0] = tag
}

// FillQuietEvict is FillQuiet, additionally reporting the evicted tag
// (lineID+1, or 0 for a hit or an empty-way fill), like AccessEvict.
func (c *Cache) FillQuietEvict(lineID uint64) (evicted uint64) {
	tag := lineID + 1
	base := c.setIndex(lineID) * c.ways
	set := c.tags[base : base+c.ways]
	for i, t := range set {
		if t == tag {
			if i != 0 {
				copy(set[1:i+1], set[:i])
				set[0] = tag
			}
			return 0
		}
	}
	evicted = set[c.ways-1]
	copy(set[1:], set[:c.ways-1])
	set[0] = tag
	return evicted
}

// Lines visits every resident line ID, in no particular order, without
// touching counters or LRU state. Intended for coherence checks.
func (c *Cache) Lines(visit func(lineID uint64)) {
	for _, t := range c.tags {
		if t != 0 {
			visit(t - 1)
		}
	}
}

// Invalidate removes lineID if present and reports whether it was resident.
// Used by the coherence directory.
func (c *Cache) Invalidate(lineID uint64) bool {
	tag := lineID + 1
	base := c.setIndex(lineID) * c.ways
	set := c.tags[base : base+c.ways]
	for i, t := range set {
		if t == tag {
			// Shift the remainder up and clear the LRU slot.
			copy(set[i:], set[i+1:])
			set[c.ways-1] = 0
			return true
		}
	}
	return false
}
