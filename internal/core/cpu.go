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
// and attributes events to modules. Data-side events arrive through the
// Machine's arena tracer while this CPU is current.
type CPU struct {
	ID   int
	hier *Hierarchy

	Instructions uint64
	IStallCycles uint64
	DStallCycles uint64
	TxCount      uint64

	perModule [NumModules]ModuleStats
	curMod    Module

	// mt mirrors the machine's concurrent mode: Exec uses the region's
	// per-core cold-window rotation instead of the shared one, so several
	// CPUs can execute the same region at once without racing.
	mt bool
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
			rot := r.rot
			if c.mt {
				rot = int(r.rotMT[c.ID])
			}
			start := hot + rot%span
			first := cold
			if start+first > r.lines {
				first = r.lines - start
			}
			stall += c.hier.FetchCode(c.ID, r.Base+simmem.Addr(start*LineBytes), first)
			if rest := cold - first; rest > 0 {
				stall += c.hier.FetchCode(c.ID, r.Base+simmem.Addr(hot*LineBytes), rest)
			}
			if c.mt {
				r.rotMT[c.ID] = int32((rot + cold) % span)
			} else {
				r.rot = (rot + cold) % span
			}
		}
	}
	c.Instructions += uint64(instrs)
	c.IStallCycles += uint64(stall)
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
	c.IStallCycles += uint64(stall)
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
// core, and routes arena data accesses to the currently executing CPU. It is
// the top-level object a system archetype is built on.
//
// By default a Machine is not safe for concurrent use: simulated cores are
// logical — the harness interleaves them from one goroutine via SetCurrent —
// and the concurrent experiment runner gets its parallelism from giving
// every cell its own Machine. SetConcurrent(true) switches the hierarchy
// into its locked mode, after which different cores may be driven from
// different goroutines, each accessing memory through its own per-core arena
// view (Arena.View with TracerFor) so accesses are charged to a fixed CPU
// instead of the shared current one.
type Machine struct {
	Arena *simmem.Arena
	Hier  *Hierarchy
	CPUs  []*CPU

	cur *CPU
}

// NewMachine builds a machine with the given hierarchy configuration and a
// fresh arena, attaches itself as the arena's tracer, and selects core 0.
func NewMachine(cfg HierarchyConfig) *Machine {
	m := &Machine{
		Arena: simmem.New(),
		Hier:  NewHierarchy(cfg),
	}
	m.CPUs = make([]*CPU, m.Hier.Cores())
	for i := range m.CPUs {
		m.CPUs[i] = &CPU{ID: i, hier: m.Hier}
	}
	m.cur = m.CPUs[0]
	m.Arena.SetTracer(m)
	return m
}

// OnData implements simmem.Tracer: it charges the access to the current CPU
// and attributes the stall cycles to that CPU's current module.
//
//oltpsim:hotpath
func (m *Machine) OnData(addr simmem.Addr, size int, write bool) {
	c := m.cur
	stall := m.Hier.DataAccess(c.ID, addr, size, write)
	if stall != 0 {
		c.DStallCycles += uint64(stall)
		c.perModule[c.curMod].DStallCycles += uint64(stall)
	}
}

// ClaimHome homes the data lines of [addr, addr+size) on the given socket
// (see Hierarchy.ClaimHome). Engines call it during population to model
// NUMA-aware (partitioned) data placement.
func (m *Machine) ClaimHome(addr simmem.Addr, size, socket int) {
	m.Hier.ClaimHome(addr, size, socket)
}

// SocketOf returns the socket a core belongs to.
func (m *Machine) SocketOf(core int) int { return m.Hier.SocketOf(core) }

// SetConcurrent switches the machine between serialized and concurrent mode:
// it arms the hierarchy's socket guards and inboxes and every CPU's per-core
// code-window rotation together. Must be called while no simulated execution
// is in flight.
func (m *Machine) SetConcurrent(on bool) {
	m.Hier.SetConcurrent(on)
	for _, c := range m.CPUs {
		c.mt = on
	}
}

// Concurrent reports whether the machine is in concurrent mode.
func (m *Machine) Concurrent() bool { return m.Hier.Concurrent() }

// coreTracer is a simmem.Tracer pinned to one CPU: data accesses through an
// arena view carrying it are charged to that CPU regardless of the machine's
// current selection. This is what gives each concurrent worker its own
// attribution without touching the shared cur pointer.
type coreTracer struct {
	m *Machine
	c *CPU
}

// OnData implements simmem.Tracer, mirroring Machine.OnData for a fixed CPU.
//
//oltpsim:hotpath
func (t *coreTracer) OnData(addr simmem.Addr, size int, write bool) {
	c := t.c
	stall := t.m.Hier.DataAccess(c.ID, addr, size, write)
	if stall != 0 {
		c.DStallCycles += uint64(stall)
		c.perModule[c.curMod].DStallCycles += uint64(stall)
	}
}

// TracerFor returns a tracer pinned to the given core, for use with
// Arena.View in concurrent mode.
func (m *Machine) TracerFor(core int) simmem.Tracer {
	return &coreTracer{m: m, c: m.CPUs[core]}
}

// SetCurrent selects the CPU that subsequent Exec calls and data accesses
// belong to. The simulation is single-OS-threaded; logical cores are
// interleaved by the harness, which keeps counter attribution exact (the
// problem hardware counters have with Go's scheduler, per the reproduction
// notes, does not arise).
func (m *Machine) SetCurrent(cpuID int) { m.cur = m.CPUs[cpuID] }

// Current returns the currently selected CPU.
func (m *Machine) Current() *CPU { return m.cur }
