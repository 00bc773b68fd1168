// Package simmem provides the simulated virtual-memory arena that every
// database substrate in this repository allocates from and accesses through.
//
// The arena serves two purposes:
//
//  1. It is a real allocator with real backing bytes: indexes, pages, lock
//     tables, version chains and log buffers store their state here, so the
//     engines genuinely execute against it.
//  2. Every read and write is reported, at its virtual address, to an attached
//     Tracer (the simulated cache hierarchy in internal/core). This is the
//     data-side event stream that replaces the hardware performance counters
//     used by the paper.
//
// Tracing can be switched off (Population of multi-hundred-megabyte databases
// runs untraced for speed) and on (warm-up and measured benchmark windows).
//
// One simulated address space can be reached through several *Arena handles:
// New returns the root handle, and View derives additional handles that share
// every byte and allocation cursor but carry their own tracer. This is how
// the concurrent serving mode gives each simulated core a handle whose
// accesses are charged to that core: per-handle tracer state needs no
// synchronization, while the shared page table uses atomic publication and
// the shared allocator a mutex, so handles may be used from different
// goroutines concurrently.
package simmem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Addr is a virtual address in the simulated address space.
type Addr uint64

// Segment bases. Code and data live far apart so instruction fetches and data
// accesses can never alias in the simulated caches.
const (
	// CodeBase is the start of the simulated code segment. Code has no
	// backing bytes; only its addresses matter (instruction fetch).
	CodeBase Addr = 0x0000_0000_1000_0000
	// CodeLimit bounds the code segment: AllocCode hands out code below it,
	// and the simulated caches index code lines by their offset from
	// CodeBase up to it (256 MiB of code, 4 Mi lines).
	CodeLimit Addr = CodeBase + 256<<20
	// DataBase is the start of the simulated data segment.
	DataBase Addr = 0x0000_4000_0000_0000
)

const (
	pageShift = 16 // 64 KiB backing pages, allocated lazily
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	dataBasePage = Addr(DataBase >> pageShift)

	// The page table is two-level: a fixed-size top table of chunk pointers
	// (so its header is never rewritten and lock-free readers need no bounds
	// against a growing slice) over lazily materialized chunks of page
	// pointers. 1<<chunkShift pages per chunk x maxChunks bounds the data
	// segment at 1 TiB of simulated address space.
	chunkShift = 10 // 1024 pages (64 MiB) per chunk
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
	maxChunks  = 1 << 14
)

type pageBuf = [pageSize]byte

// chunk is one lazily materialized run of page pointers. Entries are
// published atomically so concurrent readers (per-core arena views) never
// race the materializing writer.
type chunk [chunkPages]atomic.Pointer[pageBuf]

// chunkTable is the fixed-size top level of the page table.
type chunkTable [maxChunks]atomic.Pointer[chunk]

// Tracer receives one event per data access. Implemented by the cache
// hierarchy in internal/core.
type Tracer interface {
	// OnData is called for every traced data read/write. addr is the first
	// byte accessed and size the number of bytes (the tracer splits the
	// access into cache lines).
	OnData(addr Addr, size int, write bool)
}

// arenaShared is the state all handles onto one address space share: the page
// table, the allocation cursors, and the handle list (so EnableTracing
// reaches every view). mu guards the cursors, page materialization and the
// view list; the page table itself is read lock-free through the atomic
// pointers.
type arenaShared struct {
	chunks *chunkTable

	mu            sync.Mutex
	codeTop       Addr
	dataTop       Addr
	dataAllocated uint64
	views         []*Arena //oltpsim:guarded-by mu
}

// Arena is one handle onto a simulated virtual address space with lazily
// materialized backing pages. The zero value is not usable; call New (and
// View for additional same-space handles).
type Arena struct {
	// tracefn is non-nil exactly while tracing is enabled and a tracer is
	// attached: the per-access fast path tests one word. onData keeps the
	// attached tracer's OnData method (a bound function, so reporting avoids
	// an interface dispatch) across EnableTracing toggles.
	tracefn func(addr Addr, size int, write bool)
	onData  func(addr Addr, size int, write bool)
	tracing bool

	sh *arenaShared
}

// New returns the root handle of an empty arena with no tracer attached.
func New() *Arena {
	sh := &arenaShared{
		chunks:  new(chunkTable),
		codeTop: CodeBase,
		dataTop: DataBase,
	}
	m := &Arena{sh: sh}
	sh.views = append(sh.views, m)
	return m
}

// View returns a new handle onto the same address space with its own tracer.
// The handle shares all bytes, allocation cursors and the tracing on/off
// state (EnableTracing on any handle switches every handle), but reports its
// accesses to t — the concurrent serving mode derives one view per simulated
// core so each core's traffic is charged to its own caches. Views are
// intended to be long-lived (one per core); they are never unregistered.
func (m *Arena) View(t Tracer) *Arena {
	v := &Arena{sh: m.sh}
	if t != nil {
		v.onData = t.OnData
	}
	m.sh.mu.Lock()
	v.tracing = m.tracing
	v.retrace()
	m.sh.views = append(m.sh.views, v)
	m.sh.mu.Unlock()
	return v
}

// SetTracer attaches t to this handle; accesses through this handle are only
// reported while tracing is enabled.
func (m *Arena) SetTracer(t Tracer) {
	if t == nil {
		m.onData = nil
	} else {
		m.onData = t.OnData
	}
	m.retrace()
}

// EnableTracing turns access reporting on or off for every handle onto this
// address space. Population code disables tracing; measurement windows enable
// it. Must not be called while other goroutines are accessing the arena.
func (m *Arena) EnableTracing(on bool) {
	sh := m.sh
	sh.mu.Lock()
	for _, v := range sh.views {
		v.tracing = on
		v.retrace()
	}
	sh.mu.Unlock()
}

func (m *Arena) retrace() {
	if m.tracing && m.onData != nil {
		m.tracefn = m.onData
	} else {
		m.tracefn = nil
	}
}

// Tracing reports whether accesses through this handle are currently being
// reported.
func (m *Arena) Tracing() bool { return m.tracefn != nil }

// DataAllocated returns the number of data-segment bytes handed out so far.
// The value is exact only while no other goroutine is allocating (population,
// quiesced observation).
func (m *Arena) DataAllocated() uint64 { return m.sh.dataAllocated }

// DataTop returns the current top of the data segment: every allocation made
// so far lies below it. Callers bracketing a load with two DataTop reads get
// the exact address range the load allocated (used for NUMA home claims);
// like DataAllocated, that bracketing is only meaningful while no other
// goroutine allocates.
func (m *Arena) DataTop() Addr { return m.sh.dataTop }

// AllocCode reserves size bytes in the code segment, aligned to 4 KiB, and
// returns the base address. Code bytes have no backing storage.
func (m *Arena) AllocCode(size int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("simmem: AllocCode size %d", size))
	}
	const codeAlign = 4096
	sh := m.sh
	sh.mu.Lock()
	base := (sh.codeTop + codeAlign - 1) &^ (codeAlign - 1)
	if Addr(size) > CodeLimit-base {
		sh.mu.Unlock()
		panic(fmt.Sprintf("simmem: AllocCode of %d bytes at %#x passes the code segment's end %#x", size, uint64(base), uint64(CodeLimit)))
	}
	sh.codeTop = base + Addr(size)
	sh.mu.Unlock()
	return base
}

// AllocData reserves size bytes in the data segment with the given alignment
// (which must be a power of two, at least 1) and returns the base address.
// Safe to call from concurrent handles (substrates allocate segments and
// index nodes while serving).
func (m *Arena) AllocData(size, align int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("simmem: AllocData size %d", size))
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("simmem: AllocData alignment %d", align))
	}
	sh := m.sh
	sh.mu.Lock()
	base := (sh.dataTop + Addr(align) - 1) &^ (Addr(align) - 1)
	sh.dataTop = base + Addr(size)
	sh.dataAllocated += uint64(size)
	sh.mu.Unlock()
	return base
}

// page translates a page ID to its backing bytes, falling to pageSlow for
// pages not yet materialized.
func (m *Arena) page(id Addr) *pageBuf {
	idx := id - dataBasePage
	if uint64(idx>>chunkShift) < maxChunks {
		if ch := m.sh.chunks[idx>>chunkShift].Load(); ch != nil {
			if p := ch[idx&chunkMask].Load(); p != nil {
				return p
			}
		}
	}
	return m.pageSlow(id)
}

// pageSlow materializes a page's backing bytes on first touch. Publication is
// atomic under the shared mutex, so concurrent handles racing on a fresh page
// all end up with the same backing bytes.
//
//oltpsim:coldpath lazy page materialization; runs once per page, amortized to zero
func (m *Arena) pageSlow(id Addr) *pageBuf {
	if id < dataBasePage {
		panic(fmt.Sprintf("simmem: access to unbacked address %#x (below data segment)",
			uint64(id)<<pageShift))
	}
	idx := id - dataBasePage
	ci := idx >> chunkShift
	if uint64(ci) >= maxChunks {
		panic(fmt.Sprintf("simmem: access to %#x beyond the simulated data segment cap",
			uint64(id)<<pageShift))
	}
	sh := m.sh
	sh.mu.Lock()
	ch := sh.chunks[ci].Load()
	if ch == nil {
		ch = new(chunk)
		sh.chunks[ci].Store(ch)
	}
	p := ch[idx&chunkMask].Load()
	if p == nil {
		p = new(pageBuf)
		ch[idx&chunkMask].Store(p)
	}
	sh.mu.Unlock()
	return p
}

// EachPage calls fn, in address order and untraced, with the base address and
// backing bytes of every materialized page. It lets an image fence hash what a
// population wrote without materializing reserved ranges nothing touched (a
// buffer pool's unused frames). Like DataTop it is meaningful only while no
// other goroutine writes.
func (m *Arena) EachPage(fn func(base Addr, data []byte)) {
	for ci := range m.sh.chunks {
		ch := m.sh.chunks[ci].Load()
		if ch == nil {
			continue
		}
		for pi := range ch {
			if p := ch[pi].Load(); p != nil {
				fn((dataBasePage+Addr(ci<<chunkShift|pi))<<pageShift, p[:])
			}
		}
	}
}

func (m *Arena) trace(addr Addr, size int, write bool) {
	if m.tracefn != nil {
		m.tracefn(addr, size, write)
	}
}

// Touch reports an access of size bytes at addr without moving any data. It
// is used by substrates that keep bookkeeping state in Go for speed but still
// owe the cache hierarchy the corresponding memory traffic.
//
//oltpsim:hotpath
func (m *Arena) Touch(addr Addr, size int, write bool) {
	m.trace(addr, size, write)
}

// ReadU64 reads a little-endian uint64 at addr.
//
//oltpsim:hotpath
func (m *Arena) ReadU64(addr Addr) uint64 {
	if m.tracefn != nil {
		m.tracefn(addr, 8, false)
	}
	off := int(addr & pageMask)
	if off+8 <= pageSize {
		// Manually inlined page translation (this is the hottest path in the
		// simulator; see page()).
		idx := (addr >> pageShift) - dataBasePage
		var p *pageBuf
		if uint64(idx>>chunkShift) < maxChunks {
			if ch := m.sh.chunks[idx>>chunkShift].Load(); ch != nil {
				p = ch[idx&chunkMask].Load()
			}
		}
		if p == nil {
			p = m.pageSlow(addr >> pageShift)
		}
		return leU64(p[off : off+8 : off+8])
	}
	var buf [8]byte
	m.readSlow(addr, buf[:])
	return leU64(buf[:])
}

// WriteU64 writes a little-endian uint64 at addr.
//
//oltpsim:hotpath
func (m *Arena) WriteU64(addr Addr, v uint64) {
	if m.tracefn != nil {
		m.tracefn(addr, 8, true)
	}
	off := int(addr & pageMask)
	if off+8 <= pageSize {
		idx := (addr >> pageShift) - dataBasePage
		var p *pageBuf
		if uint64(idx>>chunkShift) < maxChunks {
			if ch := m.sh.chunks[idx>>chunkShift].Load(); ch != nil {
				p = ch[idx&chunkMask].Load()
			}
		}
		if p == nil {
			p = m.pageSlow(addr >> pageShift)
		}
		putLeU64(p[off:off+8:off+8], v)
		return
	}
	var buf [8]byte
	putLeU64(buf[:], v)
	m.writeSlow(addr, buf[:])
}

// ReadU32 reads a little-endian uint32 at addr.
//
//oltpsim:hotpath
func (m *Arena) ReadU32(addr Addr) uint32 {
	if m.tracefn != nil {
		m.tracefn(addr, 4, false)
	}
	off := int(addr & pageMask)
	if off+4 <= pageSize {
		idx := (addr >> pageShift) - dataBasePage
		var p *pageBuf
		if uint64(idx>>chunkShift) < maxChunks {
			if ch := m.sh.chunks[idx>>chunkShift].Load(); ch != nil {
				p = ch[idx&chunkMask].Load()
			}
		}
		if p == nil {
			p = m.pageSlow(addr >> pageShift)
		}
		b := p[off : off+4 : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	var buf [4]byte
	m.readSlow(addr, buf[:])
	return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
}

// WriteU32 writes a little-endian uint32 at addr.
//
//oltpsim:hotpath
func (m *Arena) WriteU32(addr Addr, v uint32) {
	if m.tracefn != nil {
		m.tracefn(addr, 4, true)
	}
	off := int(addr & pageMask)
	if off+4 <= pageSize {
		idx := (addr >> pageShift) - dataBasePage
		var p *pageBuf
		if uint64(idx>>chunkShift) < maxChunks {
			if ch := m.sh.chunks[idx>>chunkShift].Load(); ch != nil {
				p = ch[idx&chunkMask].Load()
			}
		}
		if p == nil {
			p = m.pageSlow(addr >> pageShift)
		}
		b := p[off : off+4 : off+4]
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return
	}
	var buf [4]byte
	buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	m.writeSlow(addr, buf[:])
}

// ReadBytes fills dst with the bytes at addr.
//
//oltpsim:hotpath
func (m *Arena) ReadBytes(addr Addr, dst []byte) {
	if len(dst) == 0 {
		return
	}
	m.trace(addr, len(dst), false)
	off := int(addr & pageMask)
	if off+len(dst) <= pageSize {
		p := m.page(addr >> pageShift)
		copy(dst, p[off:off+len(dst)])
		return
	}
	m.readSlow(addr, dst)
}

// WriteBytes stores src at addr.
//
//oltpsim:hotpath
func (m *Arena) WriteBytes(addr Addr, src []byte) {
	if len(src) == 0 {
		return
	}
	m.trace(addr, len(src), true)
	off := int(addr & pageMask)
	if off+len(src) <= pageSize {
		p := m.page(addr >> pageShift)
		copy(p[off:off+len(src)], src)
		return
	}
	m.writeSlow(addr, src)
}

func (m *Arena) readSlow(addr Addr, dst []byte) {
	for len(dst) > 0 {
		off := int(addr & pageMask)
		n := pageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		p := m.page(addr >> pageShift)
		copy(dst[:n], p[off:off+n])
		dst = dst[n:]
		addr += Addr(n)
	}
}

func (m *Arena) writeSlow(addr Addr, src []byte) {
	for len(src) > 0 {
		off := int(addr & pageMask)
		n := pageSize - off
		if n > len(src) {
			n = len(src)
		}
		p := m.page(addr >> pageShift)
		copy(p[off:off+n], src[:n])
		src = src[n:]
		addr += Addr(n)
	}
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}
