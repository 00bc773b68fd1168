package core

import "oltpsim/internal/simmem"

// ModuleStats accumulates retired instructions and stall cycles attributed to
// one module on one CPU.
type ModuleStats struct {
	Instructions uint64
	IStallCycles uint64
	DStallCycles uint64
}

// CPU is the execution context of one simulated core: it retires
// instructions, streams instruction fetches for the code regions it executes,
// and attributes events to modules. Its stall cycles are kept per module
// only (the ledger Measurement.ModuleCycles reads); data-side events arrive
// through a coreTracer pinned to this CPU.
type CPU struct {
	ID   int
	hier *Hierarchy

	Instructions uint64
	TxCount      uint64

	perModule [NumModules]ModuleStats
	curMod    Module

	// rotSlot indexes this CPU's cold-window rotation in every region's rot:
	// 0 while serialized, where all cores share one rotation, and the CPU's
	// own ID in concurrent mode, so cores executing one region at once never
	// race on it (Machine.SetConcurrent sets it).
	rotSlot int
}

// Exec retires instrs instructions of region r, streaming the corresponding
// instruction fetches through the I-cache hierarchy: the hot prefix of the
// invocation path plus, for regions with HotFrac < 1, a rotating window over
// the cold remainder of the region (data-dependent branch paths). Subsequent
// data accesses are attributed to r's module until the next Exec call.
func (c *CPU) Exec(r *Region, instrs int) {
	if instrs <= 0 {
		return
	}
	nLines := int(float64(instrs) * r.BytesPerInstr / LineBytes)
	if nLines < 1 {
		nLines = 1
	}
	if nLines > r.lines {
		nLines = r.lines
	}
	hot := nLines
	if r.HotFrac < 1 {
		hot = int(float64(nLines) * r.HotFrac)
	}
	stall := 0
	if hot > 0 {
		stall += c.hier.FetchCode(c.ID, r.Base, hot)
	}
	if cold := nLines - hot; cold > 0 {
		span := r.lines - hot
		if cold > span {
			cold = span
		}
		if span > 0 {
			rot := int(r.rot[c.rotSlot])
			start := hot + rot%span
			first := cold
			if start+first > r.lines {
				first = r.lines - start
			}
			stall += c.hier.FetchCode(c.ID, r.Base+simmem.Addr(start*LineBytes), first)
			if rest := cold - first; rest > 0 {
				stall += c.hier.FetchCode(c.ID, r.Base+simmem.Addr(hot*LineBytes), rest)
			}
			r.rot[c.rotSlot] = int32((rot + cold) % span)
		}
	}
	c.Instructions += uint64(instrs)
	ms := &c.perModule[r.Mod]
	ms.Instructions += uint64(instrs)
	ms.IStallCycles += uint64(stall)
	c.curMod = r.Mod
}

// ExecLoop retires iters x instrsPerIter instructions of a loop whose body
// belongs to r. The body's lines are fetched once (later iterations hit L1I
// by construction), which models tight loops such as memcmp or scan bodies.
func (c *CPU) ExecLoop(r *Region, iters, instrsPerIter int) {
	if iters <= 0 || instrsPerIter <= 0 {
		return
	}
	nLines := int(float64(instrsPerIter) * r.BytesPerInstr / LineBytes)
	if nLines < 1 {
		nLines = 1
	}
	if nLines > r.lines {
		nLines = r.lines
	}
	stall := c.hier.FetchCode(c.ID, r.Base, nLines)
	c.Instructions += uint64(iters) * uint64(instrsPerIter)
	ms := &c.perModule[r.Mod]
	ms.Instructions += uint64(iters) * uint64(instrsPerIter)
	ms.IStallCycles += uint64(stall)
	c.curMod = r.Mod
}

// CurrentModule returns the module of the most recently executed region.
func (c *CPU) CurrentModule() Module { return c.curMod }

// ModuleStats returns the accumulated statistics for module m.
func (c *CPU) ModuleStats(m Module) ModuleStats { return c.perModule[m] }

// Machine bundles the arena, the cache hierarchy and one CPU per simulated
// core. It is the top-level object a system archetype is built on.
//
// Its embedded coreTracer is the root arena's tracer: SetCurrent re-pins it,
// so every root-arena access is charged to the core selected last. By
// default a Machine is not safe for concurrent use: simulated cores are
// logical — the harness interleaves them from one goroutine — and the
// concurrent experiment runner gets its parallelism from giving every cell
// its own Machine. SetConcurrent(true) switches the hierarchy into its
// locked mode, after which different cores may be driven from different
// goroutines, each accessing memory through its own arena view (Arena.View
// with TracerFor), whose tracer stays pinned to that core.
type Machine struct {
	Arena *simmem.Arena
	Hier  *Hierarchy
	CPUs  []*CPU

	coreTracer
}

// NewMachine builds a machine with the given hierarchy configuration and a
// fresh arena, attaches its tracer to the arena, and selects core 0.
func NewMachine(cfg HierarchyConfig) *Machine {
	m := &Machine{
		Arena: simmem.New(),
		Hier:  NewHierarchy(cfg),
	}
	m.CPUs = make([]*CPU, m.Hier.Cores())
	for i := range m.CPUs {
		m.CPUs[i] = &CPU{ID: i, hier: m.Hier}
	}
	m.coreTracer = m.Hier.tracerFor(m.CPUs[0])
	m.Arena.SetTracer(&m.coreTracer)
	return m
}

// SetConcurrent switches the machine between serialized and concurrent mode:
// it arms the hierarchy's socket guards and inboxes and moves every CPU onto
// its own code-window rotation (rotSlot) together. Must be called while no
// simulated execution is in flight.
func (m *Machine) SetConcurrent(on bool) {
	m.Hier.SetConcurrent(on)
	for _, c := range m.CPUs {
		c.rotSlot = 0
		if on {
			c.rotSlot = c.ID
		}
	}
}

// Concurrent reports whether the machine is in concurrent mode.
func (m *Machine) Concurrent() bool { return m.Hier.Concurrent() }

// coreTracer is a simmem.Tracer pinned to one CPU: data accesses through an
// arena handle carrying it are charged to that CPU, and their stall cycles
// to its current module. The machine's own tracer is re-pinned by
// SetCurrent; TracerFor's are pinned for good. l1d and ct are the CPU's L1D
// and counters, pinned with it for OnData's hit path.
type coreTracer struct {
	h   *Hierarchy
	c   *CPU
	l1d *Cache
	ct  *MissCounts
}

// tracerFor returns a tracer pinned to c.
func (h *Hierarchy) tracerFor(c *CPU) coreTracer {
	return coreTracer{h: h, c: c, l1d: h.cores[c.ID].l1d, ct: &h.counts[c.ID]}
}

// OnData implements simmem.Tracer. A read that lies in one line, and that
// line already the MRU of its L1D set, is answered here: such a hit moves
// no tag and stalls nothing, so DataAccess would only count it, in the
// core's L1DAcc and the L1D's data-class accesses, and that is all this does
// (the data-side twin of FetchCode's call-free hit loop). In concurrent mode
// the core's invalidation inbox must be empty too, for a posted
// invalidation may name that line and DataAccess drains the inbox first.
// Every other access takes DataAccess.
//
//oltpsim:hotpath
func (t *coreTracer) OnData(addr simmem.Addr, size int, write bool) {
	c, h := t.c, t.h
	if id := uint64(addr) >> LineShift; !write && size > 0 && (uint64(addr)+uint64(size)-1)>>LineShift == id &&
		t.l1d.atMRU(id) && (h.mt == nil || h.mt.inq[c.ID].n.Load() == 0) {
		t.ct.L1DAcc++
		t.l1d.stats[ClassData].Accesses++
		return
	}
	if stall := h.DataAccess(c.ID, addr, size, write); stall != 0 {
		c.perModule[c.curMod].DStallCycles += uint64(stall)
	}
}

// TracerFor returns a tracer pinned to the given core, for use with
// Arena.View in concurrent mode.
func (m *Machine) TracerFor(core int) simmem.Tracer {
	t := m.Hier.tracerFor(m.CPUs[core])
	return &t
}

// SetCurrent pins the machine's tracer to cpuID, so subsequent data accesses
// through the root arena are charged to that core. The simulation is
// single-OS-threaded; logical cores are interleaved by the harness, which
// keeps counter attribution exact (the problem hardware counters have with
// Go's scheduler, per the reproduction notes, does not arise).
func (m *Machine) SetCurrent(cpuID int) { m.coreTracer = m.Hier.tracerFor(m.CPUs[cpuID]) }
