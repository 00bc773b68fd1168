package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oltpsim/internal/simmem"
)

// This file is the concurrent-mode state of the hierarchy: with
// SetConcurrent(true), DataAccess and FetchCode may be called for different
// cores from different goroutines at the same time, which is how the serving
// path generates cross-core coherence traffic from *actual* concurrent access
// instead of serialized turns. The access path (hierarchy.go) is the same in
// both modes; this state adds the locks behind guard/unguard and a per-core
// inbox between a writer's invalidation and its effect.
//
// Synchronization discipline:
//
//   - A core's private caches (l1i/l1d/l2) and its MissCounts entry are only
//     ever touched by the goroutine driving that core — they stay
//     unsynchronized, like per-CPU hardware counters.
//   - Each socket's shared state (its LLC and its directory slice) is guarded
//     by one mutex in socks. A data access holds it for one line's LLC and
//     directory step; an instruction-fetch walk (fetchMisses) and an inbox
//     drain hold it once for their whole run, so a concurrent walk pays one
//     lock pair, not one per L1I miss. Socket locks are never nested: a path
//     releases its own socket before probing or invalidating a remote one.
//   - Writers never touch another core's private caches. They post the line
//     to the victim core's invalidation inbox (invalidate); the victim drains
//     its inbox at the start of its next data access or fetch walk past the
//     L1I, invalidating its own copies and clearing its own directory bits.
//     Inbox order: an enqueuer may hold a socket lock while taking an inbox
//     lock, so drains never hold an inbox lock while taking a socket lock
//     (they swap the queue out first).
//
// The cost model consequence: invalidations become visible to the victim at
// its next access rather than instantly (a message-passing approximation of
// the real protocol's asynchrony). Invalidations are counted by the core
// that *loses* the copy, in both modes, so they read the same per core.
// Directory and caches may disagree transiently mid-run; after Quiesce they
// agree exactly again, which is what CheckCoherent verifies and the
// concurrent race-hammer tests assert.

// invQueue is one core's pending-invalidation inbox.
type invQueue struct {
	mu      sync.Mutex
	pending []uint64 //oltpsim:guarded-by mu
	// n mirrors len(pending), stored under mu, so the owner finds an empty
	// inbox — the common case, checked on every data access — with one load.
	n atomic.Int32
	// draining is the owner core's swap buffer: only the owning core's
	// goroutine touches it, outside the lock.
	draining []uint64
	// Each core's inbox on its own cache line: the owner's load of n must
	// not share one with a neighbour's lock traffic.
	_ [64]byte
}

// hierMT is the synchronization state of concurrent mode; nil while the
// hierarchy is in (serialized) single-goroutine mode.
type hierMT struct {
	socks []sync.Mutex // one per socket: guards llcs[s] and dirs[s]
	inq   []invQueue   // one per core
}

// guard and unguard bracket every touch of socket s's shared state — its LLC
// and its directory slice. Serialized mode has one goroutine and nothing to
// exclude, so they do nothing; concurrent mode takes the socket's lock.
// Guards are never nested: a path releases its own socket before it probes or
// invalidates a remote one. The locking itself is kept out of line so that
// both stay within the inlining budget and serialized mode pays a nil check,
// not a call.
func (h *Hierarchy) guard(s int) {
	if h.mt != nil {
		h.mt.lock(s)
	}
}

func (h *Hierarchy) unguard(s int) {
	if h.mt != nil {
		h.mt.unlock(s)
	}
}

//go:noinline
func (m *hierMT) lock(s int) { m.socks[s].Lock() }

//go:noinline
func (m *hierMT) unlock(s int) { m.socks[s].Unlock() }

// SetConcurrent switches the hierarchy between the serialized single-
// goroutine mode (the harness default; byte-identical to the historical
// paths) and the concurrent mode described above. It must be called while no
// accesses are in flight. Leaving concurrent mode drains every inbox so the
// directory and caches agree again.
func (h *Hierarchy) SetConcurrent(on bool) {
	if !on {
		h.Quiesce()
		h.mt = nil
		return
	}
	if h.mt != nil {
		return
	}
	h.mt = &hierMT{
		socks: make([]sync.Mutex, h.nSock),
		inq:   make([]invQueue, len(h.cores)),
	}
}

// Concurrent reports whether the hierarchy is in concurrent mode.
func (h *Hierarchy) Concurrent() bool { return h.mt != nil }

// drainInvalidations applies core's pending invalidations to its own private
// caches and directory bits. Called by the owning core's goroutine (or by
// Quiesce while the cores are stopped).
func (h *Hierarchy) drainInvalidations(core int) {
	q := &h.mt.inq[core]
	if q.n.Load() == 0 {
		return
	}
	q.mu.Lock()
	q.pending, q.draining = q.draining[:0], q.pending
	q.n.Store(0)
	q.mu.Unlock()

	// Only a coherent write posts, so the directory exists here. One
	// guarded section covers the whole drain.
	s := h.sockOf[core]
	h.guard(s)
	for _, id := range q.draining {
		h.dropPrivate(core, id)
		h.dropSharer(core, s, id)
	}
	h.unguard(s)
}

// Quiesce drains every core's invalidation inbox. In concurrent mode it must
// be called with all cores stopped (the engine's Observe path holds every
// per-core lock); it restores exact directory/cache agreement. A no-op in
// serialized mode.
func (h *Hierarchy) Quiesce() {
	if h.mt == nil {
		return
	}
	for c := range h.cores {
		h.drainInvalidations(c)
	}
}

// CheckCoherent verifies directory/cache agreement: every data line resident
// in a core's private L1D or L2 must have its directory sharer bit set — a
// missing bit would make the line invisible to writers and lose
// invalidations. The reverse direction is a superset check only: a directory
// bit may outlive the cached copy, because the unified L2 silently evicts
// data victims on instruction-side fills (in serialized mode too) without
// notifying the directory; stale bits cost at most a wasted invalidation
// probe, never correctness. The hierarchy must be quiescent (no accesses in
// flight; call Quiesce first in concurrent mode). Returns nil when coherence
// is disabled (no directory).
func (h *Hierarchy) CheckCoherent() error {
	if h.dirs == nil {
		return nil
	}
	var err error
	// Cache -> directory: every resident private data line is recorded. The
	// L2 is unified, so instruction lines (below the data segment) are
	// skipped — only data lines live in the directory.
	dataBase := uint64(simmem.DataBase) >> LineShift
	for c := range h.cores {
		s := h.sockOf[c]
		bit := uint64(1) << uint(c)
		check := func(which string, lines func(visit func(id uint64))) {
			lines(func(id uint64) {
				if err != nil || id < dataBase {
					return
				}
				if h.dirs[s].get(id)&bit == 0 {
					err = fmt.Errorf("core: line %#x resident in core %d %s but not in socket %d directory",
						id, c, which, s)
				}
			})
		}
		check("l1d", h.cores[c].l1d.Lines)
		check("l2", h.cores[c].l2.Lines)
		if err != nil {
			return err
		}
	}
	// Directory -> cache (superset): sharer bits must at least name cores of
	// the directory's own socket; bits for stale (evicted) copies are
	// tolerated, see the function comment.
	for s := range h.dirs {
		lo, hi := h.socketRange(s)
		h.dirs[s].each(func(id, mask uint64) {
			if err != nil {
				return
			}
			if mask>>uint(hi) != 0 || (lo > 0 && mask&(uint64(1)<<uint(lo)-1) != 0) {
				err = fmt.Errorf("core: socket %d directory mask %#x for line %#x names cores outside [%d,%d)",
					s, mask, id, lo, hi)
			}
		})
		if err != nil {
			return err
		}
	}
	return err
}

// each visits every nonzero directory entry.
func (d *directory) each(visit func(id, mask uint64)) {
	for pi, p := range d.pages {
		if p == nil {
			continue
		}
		base := d.base + uint64(pi)<<dirPageShift
		for i, mask := range p {
			if mask != 0 {
				visit(base+uint64(i), mask)
			}
		}
	}
}
