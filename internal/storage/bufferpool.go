package storage

import (
	"errors"
	"fmt"

	"oltpsim/internal/simmem"
)

// ErrNoFreeFrame is returned by Fix when every frame is pinned.
var ErrNoFreeFrame = errors.New("storage: buffer pool has no evictable frame")

// BufferPool is the disk-based archetypes' page cache: a fixed array of
// frames in the arena fronted by an open-addressing page table (also in the
// arena, so every Fix pays the page-table probe traffic a real buffer pool
// pays), with clock eviction and pin counts.
//
// Evicted dirty pages spill to a Go-side "disk" map (untraced: the paper's
// setups are memory-resident and use asynchronous I/O, so disk bytes never
// sit on the measured path; the experiments size pools to avoid eviction
// entirely, but correctness under eviction is implemented and tested).
type BufferPool struct {
	m      *simmem.Arena
	frames simmem.Addr // nFrames x PageSize
	n      int

	// Page table: open addressing, 2*n slots of 16 bytes {pageID+1, frame}.
	table     simmem.Addr
	tableSize int

	pageOf []uint64 // frame -> pageID+1 (0 = free)
	used   int      // frames [used, n) have never held a page
	pins   []int32
	dirty  []bool
	ref    []bool // clock reference bits
	hand   int

	disk map[uint64][]byte

	nextPageID uint64

	// Stats (Go-side, for tests and reports).
	Hits, Misses, Evictions uint64
}

// NewBufferPool creates a pool of nFrames frames.
func NewBufferPool(m *simmem.Arena, nFrames int) *BufferPool {
	if nFrames <= 0 {
		panic("storage: buffer pool needs at least one frame")
	}
	ts := 2 * nFrames
	bp := &BufferPool{
		m:          m,
		frames:     m.AllocData(nFrames*PageSize, PageSize),
		n:          nFrames,
		table:      m.AllocData(ts*16, 64),
		tableSize:  ts,
		pageOf:     make([]uint64, nFrames),
		pins:       make([]int32, nFrames),
		dirty:      make([]bool, nFrames),
		ref:        make([]bool, nFrames),
		disk:       make(map[uint64][]byte),
		nextPageID: 1,
	}
	return bp
}

// FrameAddr returns the arena address of frame f.
func (bp *BufferPool) FrameAddr(f int) simmem.Addr {
	return bp.frames + simmem.Addr(f)*PageSize
}

// Frames returns the number of frames.
func (bp *BufferPool) Frames() int { return bp.n }

func (bp *BufferPool) slotAddr(i int) simmem.Addr {
	return bp.table + simmem.Addr(i)*16
}

// tableLookup probes the page table and returns the frame index, or -1.
// Every probe is a real arena read (two words per slot inspected). The probe
// sequence is (h+i) mod tableSize, computed by wrap-around increments.
func (bp *BufferPool) tableLookup(pageID uint64) int {
	s := int(hash64(pageID) % uint64(bp.tableSize))
	for i := 0; i < bp.tableSize; i++ {
		a := bp.slotAddr(s)
		key := bp.m.ReadU64(a)
		if key == 0 {
			return -1
		}
		if key == pageID+1 {
			return int(bp.m.ReadU64(a + 8))
		}
		if s++; s == bp.tableSize {
			s = 0
		}
	}
	return -1
}

func (bp *BufferPool) tableInsert(pageID uint64, frame int) {
	s := int(hash64(pageID) % uint64(bp.tableSize))
	for i := 0; i < bp.tableSize; i++ {
		a := bp.slotAddr(s)
		key := bp.m.ReadU64(a)
		if key == 0 || key == ^uint64(0) || key == pageID+1 {
			bp.m.WriteU64(a, pageID+1)
			bp.m.WriteU64(a+8, uint64(frame))
			return
		}
		if s++; s == bp.tableSize {
			s = 0
		}
	}
	panic("storage: page table full")
}

func (bp *BufferPool) tableDelete(pageID uint64) {
	s := int(hash64(pageID) % uint64(bp.tableSize))
	for i := 0; i < bp.tableSize; i++ {
		a := bp.slotAddr(s)
		key := bp.m.ReadU64(a)
		if key == 0 {
			return
		}
		if key == pageID+1 {
			bp.m.WriteU64(a, ^uint64(0)) // tombstone
			return
		}
		if s++; s == bp.tableSize {
			s = 0
		}
	}
}

// NewPage allocates a fresh page, formats it, pins it, and returns its ID and
// frame address.
func (bp *BufferPool) NewPage() (uint64, simmem.Addr, error) {
	id := bp.nextPageID
	bp.nextPageID++
	f, err := bp.victim()
	if err != nil {
		return 0, 0, err
	}
	bp.install(id, f)
	InitPage(bp.m, bp.FrameAddr(f), id)
	bp.pins[f] = 1
	bp.dirty[f] = true
	return id, bp.FrameAddr(f), nil
}

// Fix pins pageID and returns its frame address, fetching it from disk if it
// was evicted.
func (bp *BufferPool) Fix(pageID uint64) (simmem.Addr, error) {
	if f := bp.tableLookup(pageID); f >= 0 {
		bp.Hits++
		bp.pins[f]++
		bp.ref[f] = true
		return bp.FrameAddr(f), nil
	}
	bp.Misses++
	f, err := bp.victim()
	if err != nil {
		return 0, err
	}
	bp.install(pageID, f)
	// The disk copy stays: the frame comes back clean, so its next eviction
	// writes nothing and the page must still be there to fetch.
	if data, ok := bp.disk[pageID]; ok {
		bp.m.WriteBytes(bp.FrameAddr(f), data)
	} else {
		InitPage(bp.m, bp.FrameAddr(f), pageID)
	}
	bp.pins[f] = 1
	bp.ref[f] = true
	return bp.FrameAddr(f), nil
}

// Unfix releases one pin on pageID; dirty marks the page modified.
func (bp *BufferPool) Unfix(pageID uint64, dirtied bool) {
	f := bp.tableLookup(pageID)
	if f < 0 {
		panic(fmt.Sprintf("storage: Unfix of unfixed page %d", pageID))
	}
	bp.unpin(f, dirtied)
}

// UnfixAddr releases one pin given the frame address Fix returned. Unlike
// Unfix it needs no page-table probe (a real buffer pool unlatches through
// the frame control block it already holds).
func (bp *BufferPool) UnfixAddr(frameAddr simmem.Addr, dirtied bool) {
	f := int((frameAddr - bp.frames) / PageSize)
	if f < 0 || f >= bp.n || frameAddr != bp.FrameAddr(f) {
		panic(fmt.Sprintf("storage: UnfixAddr of non-frame address %#x", frameAddr))
	}
	bp.unpin(f, dirtied)
}

func (bp *BufferPool) unpin(f int, dirtied bool) {
	if bp.pins[f] <= 0 {
		panic(fmt.Sprintf("storage: pin underflow on frame %d", f))
	}
	bp.pins[f]--
	if dirtied {
		bp.dirty[f] = true
	}
}

// PinCount reports the pin count of pageID (0 if not resident).
func (bp *BufferPool) PinCount(pageID uint64) int {
	if f := bp.tableLookup(pageID); f >= 0 {
		return int(bp.pins[f])
	}
	return 0
}

// Resident reports whether pageID currently occupies a frame.
func (bp *BufferPool) Resident(pageID uint64) bool { return bp.tableLookup(pageID) >= 0 }

// Peek returns the frame address of pageID without pinning it or touching
// hit/reference state — a read-only probe for callers that must not perturb
// the pool (the indexes' untraced bulk-load path).
func (bp *BufferPool) Peek(pageID uint64) (simmem.Addr, bool) {
	if f := bp.tableLookup(pageID); f >= 0 {
		return bp.FrameAddr(f), true
	}
	return 0, false
}

func (bp *BufferPool) install(pageID uint64, frame int) {
	bp.tableInsert(pageID, frame)
	bp.pageOf[frame] = pageID + 1
}

// victim returns a free frame, evicting an unpinned page with the clock
// algorithm if needed. Both callers install a page into the frame at once, so
// a frame evict empties never stays free: the free frames are always the
// never-used suffix.
func (bp *BufferPool) victim() (int, error) {
	if bp.used < bp.n {
		bp.used++
		return bp.used - 1, nil
	}
	for sweep := 0; sweep < 2*bp.n; sweep++ {
		f := bp.hand
		bp.hand = (bp.hand + 1) % bp.n
		if bp.pins[f] > 0 {
			continue
		}
		if bp.ref[f] {
			bp.ref[f] = false
			continue
		}
		bp.evict(f)
		return f, nil
	}
	return 0, ErrNoFreeFrame
}

func (bp *BufferPool) evict(f int) {
	pageID := bp.pageOf[f] - 1
	if bp.dirty[f] {
		buf := bp.disk[pageID]
		if buf == nil {
			buf = make([]byte, PageSize) //oltpsim:coldpath first write-back of a page to the simulated disk map
		}
		bp.m.ReadBytes(bp.FrameAddr(f), buf)
		bp.disk[pageID] = buf
	}
	bp.tableDelete(pageID)
	bp.pageOf[f] = 0
	bp.dirty[f] = false
	bp.Evictions++
}

func hash64(x uint64) uint64 {
	// SplitMix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
