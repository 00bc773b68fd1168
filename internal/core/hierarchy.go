package core

import (
	"fmt"

	"oltpsim/internal/simmem"
)

// MissCounts holds per-level, per-class miss counters for one core — the raw
// events a hardware PMU would report.
type MissCounts struct {
	L1IAcc, L1IMiss uint64
	L2IMiss         uint64
	LLCIMiss        uint64

	L1DAcc, L1DMiss uint64
	L2DMiss         uint64
	LLCDMiss        uint64

	Invalidations uint64 // private copies this core lost to another core's write
	IPrefetches   uint64 // quiet line fills issued by the I-prefetcher

	// NUMA counters (nonzero only with Sockets > 1). The remote counters
	// split the LLC misses above by where the fill was served: another
	// socket's LLC or a remote socket's DRAM; the unsplit remainder came
	// from local DRAM.
	LLCIRemoteLLC  uint64 // I-side LLC misses served by a remote socket's LLC
	LLCDRemoteLLC  uint64 // D-side LLC misses served by a remote socket's LLC
	LLCDRemoteDRAM uint64 // D-side LLC misses served by remote-socket DRAM
	XInvalidations uint64 // remote sockets this core's writes invalidated
}

// Add accumulates other into m.
func (m *MissCounts) Add(other MissCounts) {
	m.L1IAcc += other.L1IAcc
	m.L1IMiss += other.L1IMiss
	m.L2IMiss += other.L2IMiss
	m.LLCIMiss += other.LLCIMiss
	m.L1DAcc += other.L1DAcc
	m.L1DMiss += other.L1DMiss
	m.L2DMiss += other.L2DMiss
	m.LLCDMiss += other.LLCDMiss
	m.Invalidations += other.Invalidations
	m.IPrefetches += other.IPrefetches
	m.LLCIRemoteLLC += other.LLCIRemoteLLC
	m.LLCDRemoteLLC += other.LLCDRemoteLLC
	m.LLCDRemoteDRAM += other.LLCDRemoteDRAM
	m.XInvalidations += other.XInvalidations
}

// Sub returns m minus other (counter delta between two snapshots).
func (m MissCounts) Sub(other MissCounts) MissCounts {
	return MissCounts{
		L1IAcc: m.L1IAcc - other.L1IAcc, L1IMiss: m.L1IMiss - other.L1IMiss,
		L2IMiss: m.L2IMiss - other.L2IMiss, LLCIMiss: m.LLCIMiss - other.LLCIMiss,
		L1DAcc: m.L1DAcc - other.L1DAcc, L1DMiss: m.L1DMiss - other.L1DMiss,
		L2DMiss: m.L2DMiss - other.L2DMiss, LLCDMiss: m.LLCDMiss - other.LLCDMiss,
		Invalidations:  m.Invalidations - other.Invalidations,
		IPrefetches:    m.IPrefetches - other.IPrefetches,
		LLCIRemoteLLC:  m.LLCIRemoteLLC - other.LLCIRemoteLLC,
		LLCDRemoteLLC:  m.LLCDRemoteLLC - other.LLCDRemoteLLC,
		LLCDRemoteDRAM: m.LLCDRemoteDRAM - other.LLCDRemoteDRAM,
		XInvalidations: m.XInvalidations - other.XInvalidations,
	}
}

type coreCaches struct {
	l1i *wayCache // code lines only
	l1d *Cache
	l2  *wayCache // unified: code and data lines
}

// Hierarchy is the simulated memory hierarchy: per-core private L1I/L1D/L2 in
// front of one last-level cache per socket, with invalidation-based coherence
// between the private data caches and (with Sockets > 1) between sockets.
// An LLC miss is served from the cheapest place holding the line: another
// socket's LLC, the line's home socket's DRAM, or remote DRAM — each charged
// its own penalty, as on the paper's two-socket server.
type Hierarchy struct {
	cfg    HierarchyConfig
	cores  []coreCaches
	llcs   []*Cache // one per socket
	counts []MissCounts

	nSock  int
	cps    int   // cores per socket (last socket may hold fewer)
	sockOf []int // core ID -> socket ID

	// dirs[s] maps a data line to the bitmask of socket s's cores whose
	// private caches hold it (bit index = global core ID). Maintained exactly:
	// evictions from the private caches clear bits, so the mask equals the
	// set of private caches (L1D or L2) holding the line. Only allocated when
	// coherence is enabled.
	dirs []*directory

	// homes records explicit home-socket claims (ClaimHome); nil until the
	// first claim. Unclaimed lines interleave across sockets by 4KB page.
	homes *homeMap

	// mt holds the concurrent-mode synchronization state (socket locks and
	// per-core invalidation inboxes); nil in the serialized single-goroutine
	// mode. See hierarchy_mt.go.
	mt *hierMT
}

// The coherence directory is a two-level paged slice keyed by data line ID
// relative to the data segment base: a top-level slice of pages, each page
// covering dirPageSize lines. Lookups are two dependent loads instead of a
// map probe on the per-access hot path; pages materialize lazily, so only
// line ranges that are actually written cost memory.
const (
	dirPageShift = 14
	dirPageSize  = 1 << dirPageShift
	dirPageMask  = dirPageSize - 1
)

type dirPage [dirPageSize]uint64

type directory struct {
	base  uint64 // line ID of the data segment base
	pages []*dirPage
}

func newDirectory() *directory {
	return &directory{base: uint64(simmem.DataBase) >> LineShift}
}

// get returns the sharer mask for line id (0 when never recorded).
func (d *directory) get(id uint64) uint64 {
	idx := id - d.base
	pi := idx >> dirPageShift
	if pi >= uint64(len(d.pages)) || d.pages[pi] == nil {
		return 0
	}
	return d.pages[pi][idx&dirPageMask]
}

// set stores the sharer mask for line id, materializing its page.
func (d *directory) set(id uint64, mask uint64) {
	idx := id - d.base
	if id < d.base {
		panic("core: coherence directory access below the data segment")
	}
	pi := idx >> dirPageShift
	for pi >= uint64(len(d.pages)) {
		d.pages = append(d.pages, nil)
	}
	p := d.pages[pi]
	if p == nil {
		p = new(dirPage) //oltpsim:coldpath lazy directory page materialization, once per page
		d.pages[pi] = p
	}
	p[idx&dirPageMask] = mask
}

// homeMap records explicit home-socket claims per data line: 0 means
// unclaimed (fall back to page interleave), otherwise socket+1. Same paged
// layout as the directory.
type homePage [dirPageSize]uint8

type homeMap struct {
	base  uint64
	pages []*homePage
}

func newHomeMap() *homeMap {
	return &homeMap{base: uint64(simmem.DataBase) >> LineShift}
}

func (hm *homeMap) get(id uint64) uint8 {
	idx := id - hm.base
	pi := idx >> dirPageShift
	if pi >= uint64(len(hm.pages)) || hm.pages[pi] == nil {
		return 0
	}
	return hm.pages[pi][idx&dirPageMask]
}

func (hm *homeMap) set(id uint64, v uint8) {
	idx := id - hm.base
	if id < hm.base {
		panic("core: home claim below the data segment")
	}
	pi := idx >> dirPageShift
	for pi >= uint64(len(hm.pages)) {
		hm.pages = append(hm.pages, nil)
	}
	p := hm.pages[pi]
	if p == nil {
		p = new(homePage)
		hm.pages[pi] = p
	}
	p[idx&dirPageMask] = v
}

// homeInterleaveShift interleaves unclaimed homes across sockets at 4KB-page
// granularity (64 lines per page).
const homeInterleaveShift = 6

// NewHierarchy builds the hierarchy described by cfg. The returned
// hierarchy's Config() is normalized: socket count clamped to [1, Cores],
// zero remote penalties replaced by their defaults.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Cores > MaxCores {
		panic("core: at most MaxCores (64) simulated cores supported (directory sharer masks are one uint64 word)")
	}
	cfg.Sockets = cfg.SocketCount()
	if cfg.RemoteLLCPenalty <= 0 {
		cfg.RemoteLLCPenalty = cfg.LLC.MissPenalty * 3 / 4
	}
	if cfg.RemoteDRAMPenalty <= 0 {
		cfg.RemoteDRAMPenalty = cfg.LLC.MissPenalty * 2
	}
	if cfg.XInvalidatePenalty <= 0 {
		cfg.XInvalidatePenalty = cfg.L2.MissPenalty * 3
	}
	h := &Hierarchy{
		cfg:    cfg,
		cores:  make([]coreCaches, cfg.Cores),
		counts: make([]MissCounts, cfg.Cores),
		nSock:  cfg.Sockets,
		cps:    cfg.CoresPerSocket(),
	}
	h.llcs = make([]*Cache, h.nSock)
	for s := range h.llcs {
		h.llcs[s] = NewCache(cfg.LLC)
	}
	h.sockOf = make([]int, cfg.Cores)
	for i := range h.cores {
		h.cores[i] = coreCaches{
			l1i: newWayCache("L1I", cfg.L1I),
			l1d: NewCache(cfg.L1D),
			l2:  newWayCache("L2", cfg.L2),
		}
		h.sockOf[i] = i / h.cps
	}
	if cfg.Coherence && cfg.Cores > 1 {
		h.dirs = make([]*directory, h.nSock)
		for s := range h.dirs {
			h.dirs[s] = newDirectory()
		}
	}
	return h
}

// Config returns the (normalized) hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Cores returns the number of simulated cores.
func (h *Hierarchy) Cores() int { return len(h.cores) }

// Sockets returns the number of sockets.
func (h *Hierarchy) Sockets() int { return h.nSock }

// SocketOf returns the socket a core belongs to.
func (h *Hierarchy) SocketOf(core int) int { return h.sockOf[core] }

// socketRange returns the half-open core-ID range [lo, hi) of socket s.
func (h *Hierarchy) socketRange(s int) (lo, hi int) {
	lo = s * h.cps
	hi = lo + h.cps
	if hi > len(h.cores) {
		hi = len(h.cores)
	}
	return lo, hi
}

// ClaimHome homes the data lines covering [addr, addr+size) on the given
// socket, overriding the interleaved default. Claims are only meaningful with
// Sockets > 1; they are cheap no-ops otherwise.
func (h *Hierarchy) ClaimHome(addr simmem.Addr, size, socket int) {
	if h.nSock <= 1 || size <= 0 {
		return
	}
	if socket < 0 || socket >= h.nSock {
		panic("core: ClaimHome socket out of range")
	}
	if h.homes == nil {
		h.homes = newHomeMap()
	}
	first := uint64(addr) >> LineShift
	last := (uint64(addr) + uint64(size) - 1) >> LineShift
	for id := first; id <= last; id++ {
		h.homes.set(id, uint8(socket)+1)
	}
}

// HomeOf returns the home socket of the data line containing addr.
func (h *Hierarchy) HomeOf(addr simmem.Addr) int {
	return h.homeOf(uint64(addr) >> LineShift)
}

func (h *Hierarchy) homeOf(id uint64) int {
	if h.homes != nil {
		if v := h.homes.get(id); v != 0 {
			return int(v) - 1
		}
	}
	return int((id >> homeInterleaveShift) % uint64(h.nSock))
}

// Counts returns a copy of the per-core miss counters for core.
func (h *Hierarchy) Counts(core int) MissCounts { return h.counts[core] }

// TotalCounts returns the miss counters summed across all cores.
func (h *Hierarchy) TotalCounts() MissCounts {
	var t MissCounts
	for i := range h.counts {
		t.Add(h.counts[i])
	}
	return t
}

// FetchCode streams nLines of instruction fetch starting at the line
// containing addr through core's I-side hierarchy and returns the stall
// cycles incurred (miss count x per-level penalty, as in the paper). Code is
// read-only and replicates freely across sockets: an LLC miss that another
// socket's LLC can serve costs the cross-socket forward, everything else
// fills from memory at the local-DRAM cost (code pages are homed locally).
// Only the LLC needs the guard (code is never invalidated, so the private
// caches are the core's alone), and one guarded section covers the walk
// from its first miss on (fetchMisses). L1I misses are the paper's headline
// stall and this walk is where the simulator spends most of its host time, so it
// runs over locals, in two parts: FetchCode takes the L1I hits up to the
// run's first miss in a loop that makes no call, so its few hoisted values
// stay in registers (all of HyPer's code, and most short fetches, end
// there); fetchMisses takes the rest. The run and its prefetch tail must lie
// in the code segment below simmem.CodeLimit; FetchCode panics naming the
// address otherwise.
//
//oltpsim:hotpath
func (h *Hierarchy) FetchCode(core int, addr simmem.Addr, nLines int) int {
	if nLines <= 0 {
		return 0
	}
	pf := uint64(max(h.cfg.IPrefetchLines, 0))
	first := uint64(addr) >> LineShift
	i := first - codeLineBase
	if i >= codeLineLimit || uint64(nLines)+pf > codeLineLimit-i {
		panic(fmt.Sprintf("core: instruction fetch at %#x is outside the code segment [%#x, %#x)",
			uint64(addr), uint64(simmem.CodeBase), uint64(simmem.CodeLimit)))
	}
	ct := &h.counts[core]
	ct.L1IAcc += uint64(nLines)
	l1 := h.cores[core].l1i
	l1.cover(i + uint64(nLines) + pf)
	end := first + uint64(nLines)
	where, order := l1.where, l1.order
	mask, sets, pow2 := l1.setMask, l1.sets, l1.pow2
	for id := first; id < end; id++ {
		set := setIndex(id, mask, sets, pow2)
		w := uint64(where[id-codeLineBase])
		if w == 0 {
			return h.fetchMisses(core, id, end)
		}
		touch(order, set, order[set], w-1)
	}
	return 0
}

// fetchMisses is FetchCode from line id, the run's first L1I miss, to end.
// Both levels' where, order and slot slices and geometry are hoisted once
// per call (the L1I's where already covers the run and its prefetch tail;
// the L2's is grown to), every L1I and L2 lookup and prefetch fill takes
// the inlined steps (touch or victim) rather than a call, and the counters,
// the L2's among them, are summed once per call. The walk is one guarded
// section: it takes its socket once, so a concurrent walk pays one lock pair
// rather than one per miss, and releases it only around an LLC miss's
// serveMiss. In
// concurrent mode the core first drains its invalidation inbox, as a data
// access does: the walk's fills can displace data lines from the unified L2,
// and a line another core has invalidated must be gone before that.
func (h *Hierarchy) fetchMisses(core int, id, end uint64) int {
	if h.mt != nil {
		h.drainInvalidations(core)
	}
	pf := uint64(max(h.cfg.IPrefetchLines, 0))
	cc := &h.cores[core]
	ct := &h.counts[core]
	s := h.sockOf[core]
	llc := h.llcs[s]
	l1, l2 := cc.l1i, cc.l2
	l2.cover(end - codeLineBase + pf)
	w1, o1, s1 := l1.where, l1.order, l1.slot
	m1, n1, p1, ways1, top1, lanes1 := l1.setMask, l1.sets, l1.pow2, l1.ways, l1.top, l1.lanes
	w2, o2, s2 := l2.where, l2.order, l2.slot
	m2, n2, p2, ways2, top2, lanes2 := l2.setMask, l2.sets, l2.pow2, l2.ways, l2.top, l2.lanes
	// A miss leaves each line it prefetched the MRU of its L1I set, so the
	// walk's next accesses to them are hits that change nothing and can be
	// stepped over — provided the prefetched lines fall in distinct sets
	// (TestFetchCodeMatchesReferenceWalk covers both sides of that).
	skip := pf
	if skip > n1 {
		skip = 0
	}
	stall, misses, l2misses := 0, uint64(0), uint64(0)
	h.guard(s)
	for ; id < end; id++ {
		idx := id - codeLineBase
		set := setIndex(id, m1, n1, p1)
		ord := o1[set]
		if w := uint64(w1[idx]); w != 0 {
			touch(o1, set, ord, w-1)
			continue
		}
		w1[idx] = uint8(victim(w1, o1, s1, set, ord, ways1, top1, lanes1, id+1)) + 1
		misses++
		set = setIndex(id, m2, n2, p2)
		ord = o2[set]
		w := uint64(w2[idx])
		l2hit := w != 0
		if l2hit {
			touch(o2, set, ord, w-1)
		} else {
			w2[idx] = uint8(victim(w2, o2, s2, set, ord, ways2, top2, lanes2, id+1)) + 1
			l2misses++
		}
		// The rest of the miss is the LLC's lookup, then the sequential
		// next-line prefetch, which fills the following lines quietly at
		// every level so straight-line code does not miss on every line. A
		// line's LLC fill is skipped when the line already is the MRU of its
		// set, where FillQuiet would change nothing; that tag is read before
		// the line's L1I and L2 steps, which do not touch the LLC, so they
		// overlap the load.
		llcHit := true
		if !l2hit {
			llcHit = llc.Access(id, ClassInstr)
		}
		for pidx := idx + 1; pidx <= idx+pf; pidx++ {
			pid := pidx + codeLineBase
			mru := llc.atMRU(pid)
			set := setIndex(pid, m1, n1, p1)
			ord := o1[set]
			if w := uint64(w1[pidx]); w != 0 {
				touch(o1, set, ord, w-1)
			} else {
				w1[pidx] = uint8(victim(w1, o1, s1, set, ord, ways1, top1, lanes1, pid+1)) + 1
			}
			set = setIndex(pid, m2, n2, p2)
			ord = o2[set]
			if w := uint64(w2[pidx]); w != 0 {
				touch(o2, set, ord, w-1)
			} else {
				w2[pidx] = uint8(victim(w2, o2, s2, set, ord, ways2, top2, lanes2, pid+1)) + 1
			}
			if !mru {
				llc.FillQuiet(pid)
			}
		}
		if !llcHit {
			ct.LLCIMiss++
			// serveMiss probes the other sockets under their own guards,
			// and guards never nest.
			h.unguard(s)
			stall += h.serveMiss(s, id, ClassInstr, ct)
			h.guard(s)
		}
		id += skip
	}
	h.unguard(s)
	st := &l2.stats[ClassInstr]
	st.Accesses += misses
	st.Misses += l2misses
	ct.L1IMiss += misses
	ct.L2IMiss += l2misses
	ct.IPrefetches += misses * pf
	return stall + int(misses)*h.cfg.L1I.MissPenalty + int(l2misses)*h.cfg.L2.MissPenalty
}

// serveMiss resolves where an LLC miss of socket s is served from — a remote
// socket's LLC, local DRAM, or (data only; code pages are homed locally) the
// line's remote home DRAM — and returns its penalty.
func (h *Hierarchy) serveMiss(s int, id uint64, class AccessClass, ct *MissCounts) int {
	if h.nSock > 1 {
		for t := range h.llcs {
			if t == s {
				continue
			}
			h.guard(t)
			hit := h.llcs[t].Probe(id)
			h.unguard(t)
			if hit {
				if class == ClassData {
					ct.LLCDRemoteLLC++
				} else {
					ct.LLCIRemoteLLC++
				}
				return h.cfg.RemoteLLCPenalty
			}
		}
		if class == ClassData && h.homeOf(id) != s {
			ct.LLCDRemoteDRAM++
			return h.cfg.RemoteDRAMPenalty
		}
	}
	return h.cfg.LLC.MissPenalty
}

// evictPrivate records that lines ev1-1 and ev2-1 (the evicted tags the
// L1D's AccessEvict or FillQuietEvict and the L2's fill report, 0 for none)
// left core's L1D and L2 respectively; a line the other private cache no
// longer holds either leaves the core's directory entry. This is what keeps
// the directory exact rather than a may-hold superset. Caller holds
// guard(socket).
func (h *Hierarchy) evictPrivate(core, socket int, ev1, ev2 uint64) {
	cc := &h.cores[core]
	if ev1 != 0 && !cc.l2.Probe(ev1-1) {
		h.dropSharer(core, socket, ev1-1)
	}
	if ev2 != 0 && !cc.l1d.Probe(ev2-1) {
		h.dropSharer(core, socket, ev2-1)
	}
}

// dropSharer clears core's bit in socket's directory entry for line id.
// Caller holds guard(socket).
func (h *Hierarchy) dropSharer(core, socket int, id uint64) {
	d := h.dirs[socket]
	bit := uint64(1) << uint(core)
	if m := d.get(id); m&bit != 0 {
		d.set(id, m&^bit)
	}
}

// dropPrivate invalidates line id in core's private data caches, counting
// each copy lost in core's counters.
func (h *Hierarchy) dropPrivate(core int, id uint64) {
	ct := &h.counts[core]
	if h.cores[core].l1d.Invalidate(id) {
		ct.Invalidations++
	}
	if h.cores[core].l2.Invalidate(id) {
		ct.Invalidations++
	}
}

// invalidate removes line id from the private caches of every socket-t core
// named in mask; each copy is counted by the core that loses it. Serialized,
// the copies are dropped on the spot. Concurrent, a writer never touches
// another core's private caches: the line is posted to each victim's inbox,
// and the victim drops (and counts) its own copies when it next drains
// (drainInvalidations). Caller holds guard(t); inbox locks are leaf locks
// under it.
func (h *Hierarchy) invalidate(t int, id, mask uint64) {
	lo, hi := h.socketRange(t)
	for c := lo; c < hi; c++ {
		if mask&(uint64(1)<<uint(c)) == 0 {
			continue
		}
		if h.mt == nil {
			h.dropPrivate(c, id)
			continue
		}
		q := &h.mt.inq[c]
		q.mu.Lock()
		q.pending = append(q.pending, id)
		q.n.Store(int32(len(q.pending)))
		q.mu.Unlock()
	}
}

// DataAccess sends a data access of size bytes at addr through core's D-side
// hierarchy and returns the stall cycles incurred. Writes invalidate copies
// of the line in other cores' private caches when coherence is enabled, and
// allocate lines quietly: store misses drain through the store buffer
// without stalling retirement on an out-of-order core, so (like the
// load-centric counter methodology the paper uses) they contribute neither
// miss counts nor stall cycles — only future locality. The exception is a
// cross-socket ownership transfer (Sockets > 1): invalidating another
// socket's copies stalls the writer for XInvalidatePenalty per socket hit,
// the part of coherence traffic a store buffer cannot hide.
//
// A traced access reaches it through coreTracer.OnData, which answers a
// one-line read of a line already MRU in its L1D set itself, when no
// invalidation is pending for the core (the counts DataAccess would make,
// and nothing else), and sends everything else here; callers outside the
// tracer (the benchmark ladder, the tests) call it directly.
//
//oltpsim:hotpath
func (h *Hierarchy) DataAccess(core int, addr simmem.Addr, size int, write bool) int {
	if size <= 0 {
		return 0
	}
	if h.mt != nil {
		h.drainInvalidations(core)
	}
	l1d := h.cores[core].l1d
	ct := &h.counts[core]
	stall := 0
	first := uint64(addr) >> LineShift
	last := (uint64(addr) + uint64(size) - 1) >> LineShift
	for id := first; id <= last; id++ {
		ct.L1DAcc++
		if write {
			stall += h.writeLine(core, id, ct)
		} else if hit, ev := l1d.AccessEvict(id, ClassData); !hit {
			stall += h.readMiss(core, id, ev, ct)
		}
	}
	return stall
}

// readMiss serves an L1D load miss on line id (ev is the tag the L1D fill
// displaced): the private L2, then under one guarded section the directory
// bookkeeping (when coherent) and the socket's LLC, then wherever serveMiss
// finds the line.
func (h *Hierarchy) readMiss(core int, id, ev uint64, ct *MissCounts) int {
	cc := &h.cores[core]
	s := h.sockOf[core]
	ct.L1DMiss++
	stall := h.cfg.L1D.MissPenalty
	l2hit, ev2 := cc.l2.fill(id)
	cc.l2.count(ClassData, l2hit)
	llcHit := true
	h.guard(s)
	if h.dirs != nil {
		h.evictPrivate(core, s, ev, ev2)
		h.dirs[s].set(id, h.dirs[s].get(id)|uint64(1)<<uint(core))
	}
	if !l2hit {
		llcHit = h.llcs[s].Access(id, ClassData)
	}
	h.unguard(s)
	if !l2hit {
		ct.L2DMiss++
		stall += h.cfg.L2.MissPenalty
		if !llcHit {
			ct.LLCDMiss++
			stall += h.serveMiss(s, id, ClassData, ct)
		}
	}
	return stall
}

// writeLine store-allocates line id quietly at every level and, when
// coherent, takes it exclusive: same-socket sharers are invalidated silently,
// remote sockets lose their private copies and their LLC copy, and each
// remote socket hit stalls the writer for the ownership transfer.
func (h *Hierarchy) writeLine(core int, id uint64, ct *MissCounts) int {
	cc := &h.cores[core]
	s := h.sockOf[core]
	coherent := h.dirs != nil
	ev1 := cc.l1d.FillQuietEvict(id)
	_, ev2 := cc.l2.fill(id)
	h.guard(s)
	if coherent {
		self := uint64(1) << uint(core)
		d := h.dirs[s]
		if others := d.get(id) &^ self; others != 0 {
			h.invalidate(s, id, others)
		}
		h.evictPrivate(core, s, ev1, ev2)
		d.set(id, self)
	}
	h.llcs[s].FillQuiet(id)
	h.unguard(s)
	stall := 0
	if coherent && h.nSock > 1 {
		for t := 0; t < h.nSock; t++ {
			if t == s {
				continue
			}
			h.guard(t)
			rmask := h.dirs[t].get(id)
			// Invalidate doubles as the residency probe (it reports whether
			// the line was there), saving a second scan of the remote LLC set.
			inLLC := h.llcs[t].Invalidate(id)
			if rmask != 0 {
				h.invalidate(t, id, rmask)
				h.dirs[t].set(id, 0)
			}
			h.unguard(t)
			if rmask != 0 || inLLC {
				ct.XInvalidations++
				stall += h.cfg.XInvalidatePenalty
			}
		}
	}
	return stall
}
