package engine

import (
	"fmt"
	"sync"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/simmem"
	"oltpsim/internal/txn"
)

// ExecCtx is one core's transaction execution context: the recycled
// per-transaction state that used to live directly on the Engine (one
// transaction at a time), now instantiated once per executing core so shard
// workers can run transactions concurrently without sharing any mutable
// scratch. The steady state of the hot path still allocates nothing — each
// context recycles its own Tx value, scratch arena, lock bitmap, MVCC
// context and scan executor across its transactions.
//
// Serialized mode uses the engine's embedded ctx0, reading memory through
// the root arena: SetCore re-pins its cpu, its meter and the machine's
// root-arena tracer together, so one context serves every core in turn.
// Concurrent mode (EnterConcurrent) builds one context per partition,
// pinned for good to that partition's CPU and reading memory through a
// per-core arena view whose tracer is pinned to the same CPU.
type ExecCtx struct {
	e   *Engine
	cpu *core.CPU // the core every charge of this context lands on
	mem *simmem.Arena

	scratch catalog.Scratch
	txv     Tx
	mvtx    txn.MVTx
	parsed  []uint16 // FESQLPerRequest: table ID -> bit per op kind whose statement was parsed this tx
	locked  []bool   // table ID -> intent lock held this tx

	// scan is the recycled analytical-scan executor state (see olap.go); its
	// index-visit callback is bound once here so scans create no closures.
	scan scanState

	// meter translates this context's index node visits into instruction
	// execution on its core.
	meter idxMeter
}

// initCtx wires a context's bound-once state: the visit closure, the group-by
// sentinel and the index meter.
func (e *Engine) initCtx(cx *ExecCtx, cpu *core.CPU, mem *simmem.Arena) {
	cx.e = e
	cx.cpu = cpu
	cx.mem = mem
	cx.scan.visit = cx.scanVisit
	cx.scan.groupBy = -1
	cx.meter = idxMeter{e: e, cpu: cpu, mem: mem}
}

// Concurrent reports whether the engine is in concurrent mode.
func (e *Engine) Concurrent() bool { return e.mt }

// EnterConcurrent switches the engine into concurrent execution mode: one
// ExecCtx per partition, each pinned to the same-numbered core with its own
// arena view, per-shard substrates (index, row store, WAL) rebound to their
// partition's view, and the machine's hierarchy guards armed. After it
// returns, Sessions route invocations through per-core locks (see
// session.go) and different shards genuinely interleave their simulated
// memory traffic.
//
// Only share-nothing archetypes qualify: no lock manager, no buffer pool, no
// MVCC, no per-request SQL session state — i.e. the partitioned VoltDB- and
// HyPer-style systems, which is exactly the class the paper scales across
// cores. Everything else returns an error and the engine stays serialized.
func (e *Engine) EnterConcurrent() error {
	if e.mt {
		return fmt.Errorf("engine: already in concurrent mode")
	}
	if e.lm != nil || e.bp != nil || e.mv != nil {
		return fmt.Errorf("engine: concurrent mode requires a share-nothing archetype (no lock manager, buffer pool or MVCC)")
	}
	if e.cfg.FrontEnd == FESQLPerRequest {
		return fmt.Errorf("engine: concurrent mode does not support the per-request SQL front end")
	}
	p := e.cfg.Partitions
	if p < 2 {
		return fmt.Errorf("engine: concurrent mode needs at least 2 partitions, have %d", p)
	}
	if p > len(e.mach.CPUs) {
		return fmt.Errorf("engine: concurrent mode needs one core per partition: %d partitions, %d cores",
			p, len(e.mach.CPUs))
	}
	e.ctxs = make([]*ExecCtx, p)
	e.coreMu = make([]sync.Mutex, p)
	e.staged = make([]stagedTx, p)
	for i := 0; i < p; i++ {
		cx := new(ExecCtx)
		view := e.mach.Arena.View(e.mach.TracerFor(i))
		e.initCtx(cx, e.mach.CPUs[i], view)
		e.ctxs[i] = cx
	}
	// Flip the mode before rebinding: slot routes to the per-core contexts
	// only when it sees mt set.
	e.mt = true
	e.rebindShards()
	e.mach.SetConcurrent(true)
	return nil
}

// serialize installs the serialized-mode lock set: one execution lock over
// ctx0, and no 2PC staging slots.
func (e *Engine) serialize() {
	e.mt = false
	e.ctxs = []*ExecCtx{&e.ctx0}
	e.coreMu = make([]sync.Mutex, 1)
	e.staged = nil
}

// LeaveConcurrent returns the engine to serialized single-goroutine mode.
// The caller must guarantee no invocations are in flight.
func (e *Engine) LeaveConcurrent() {
	if !e.mt {
		return
	}
	e.serialize()
	e.rebindShards()
	e.mach.SetConcurrent(false)
}

// slot maps a core (== partition when concurrent) to its index in the
// execution lock set and its contexts: every core shares slot 0 while
// serialized.
func (e *Engine) slot(core int) int {
	if e.mt {
		return core
	}
	return 0
}

// rebindShards points each partition's substrates (index, row store, WAL) at
// the arena handle and meter of the context that executes it: the per-core
// view in concurrent mode, the root arena and ctx0's meter otherwise.
// Substrates only ever see their own partition's traffic, which is what makes
// the rebind sound.
func (e *Engine) rebindShards() {
	for _, t := range e.tables {
		for p := range t.shards {
			cx := e.ctxs[e.slot(p)]
			t.shards[p].idx.SetArena(cx.mem)
			t.shards[p].idx.SetMeter(&cx.meter)
			if t.shards[p].rows != nil {
				t.shards[p].rows.SetArena(cx.mem)
			}
		}
	}
	for p := range e.logs {
		e.logs[p].SetArena(e.ctxs[e.slot(p)].mem)
	}
}

// lockAll acquires the whole execution lock set in ascending order: the
// stop-the-world entry for cross-partition work (analytic procedures,
// Observe). unlockAll releases them. Consistent ordering plus the absence of
// any other multi-lock acquisition makes the pair deadlock-free.
func (e *Engine) lockAll() {
	for i := range e.coreMu {
		e.coreMu[i].Lock()
	}
}

func (e *Engine) unlockAll() {
	for i := range e.coreMu {
		e.coreMu[i].Unlock()
	}
}
