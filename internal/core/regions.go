package core

import (
	"fmt"

	"oltpsim/internal/simmem"
)

// Module identifies the software component a code region belongs to. The
// paper's Figure 7 splits execution time into "inside the OLTP engine"
// (storage manager, indexes, concurrency control, logging, compiled
// transaction code) versus the layers around it (network, SQL parser, query
// optimizer, stored-procedure dispatch).
type Module int

// Modules, ordered roughly from the outermost layer inward.
const (
	ModOther Module = iota
	ModNetwork
	ModParser
	ModOptimizer
	ModDispatch
	ModPlanExec
	ModCompiledProc
	ModTxnMgr
	ModLockMgr
	ModMVCC
	ModBufferPool
	ModIndex
	ModStorage
	ModLogging
	NumModules
)

var moduleNames = [NumModules]string{
	"other", "network", "parser", "optimizer", "dispatch", "planexec",
	"compiledproc", "txnmgr", "lockmgr", "mvcc", "bufferpool", "index",
	"storage", "logging",
}

// String returns the module's short name.
func (m Module) String() string {
	if m < 0 || m >= NumModules {
		return fmt.Sprintf("module(%d)", int(m))
	}
	return moduleNames[m]
}

// InsideEngine reports whether the module counts as "inside the OLTP engine"
// for the paper's Figure 7 breakdown. The plan executor counts as engine code
// (it is VoltDB's C++ execution engine); parsing, optimization, dispatch and
// networking are the surrounding layers.
func (m Module) InsideEngine() bool {
	switch m {
	case ModPlanExec, ModCompiledProc, ModTxnMgr, ModLockMgr, ModMVCC,
		ModBufferPool, ModIndex, ModStorage, ModLogging:
		return true
	}
	return false
}

// Region is a contiguous range of the simulated code segment belonging to one
// component. Executing instructions "from" a region streams fetches for the
// first ceil(instructions x BytesPerInstr / 64) lines of the region through
// the I-cache hierarchy, so the effective per-invocation instruction
// footprint is the instruction budget times the code density, capped by the
// region size.
type Region struct {
	Name string
	Mod  Module
	Base simmem.Addr
	Size int
	// BytesPerInstr is the effective code bytes consumed per retired
	// instruction. Dense, compiled, loopy code sits near 4 (the x86 average
	// instruction length); branchy legacy code with poor layout touches many
	// more bytes than it retires, so disk-based stacks use 6-10.
	BytesPerInstr float64
	// HotFrac is the fraction of each invocation's fetched lines that come
	// from the region's shared hot prefix (the always-taken path). The
	// remainder is fetched from a rotating window over the rest of the
	// region, modeling data-dependent branches through a large, cold code
	// body — the poor instruction locality of legacy stacks. 1.0 (the
	// default) means the whole invocation path is shared across calls, as in
	// compiled transaction code.
	HotFrac float64

	lines int
	// rot holds the cold-window rotations, indexed by the executing CPU's
	// rotSlot: slot 0 is the one rotation every core shares while
	// serialized; in concurrent mode each core advances its own.
	rot [MaxCores]int32
}

// Lines returns the number of cache lines the region spans.
func (r *Region) Lines() int { return r.lines }

// CodeSpace allocates code regions out of an arena's code segment.
type CodeSpace struct {
	arena   *simmem.Arena
	regions []*Region
}

// NewCodeSpace returns a code space allocating from arena.
func NewCodeSpace(arena *simmem.Arena) *CodeSpace {
	return &CodeSpace{arena: arena}
}

// NewRegion registers a code region of size bytes with the given code
// density and a fully-hot path (HotFrac 1). Regions are padded apart so
// distinct components never share lines.
func (cs *CodeSpace) NewRegion(name string, mod Module, size int, bytesPerInstr float64) *Region {
	return cs.NewRegionHot(name, mod, size, bytesPerInstr, 1)
}

// NewRegionHot is NewRegion with an explicit hot-path fraction.
func (cs *CodeSpace) NewRegionHot(name string, mod Module, size int, bytesPerInstr, hotFrac float64) *Region {
	if size < LineBytes {
		size = LineBytes
	}
	if bytesPerInstr <= 0 {
		bytesPerInstr = 4
	}
	if hotFrac <= 0 || hotFrac > 1 {
		hotFrac = 1
	}
	r := &Region{
		Name:          name,
		Mod:           mod,
		Base:          cs.arena.AllocCode(size),
		Size:          size,
		BytesPerInstr: bytesPerInstr,
		HotFrac:       hotFrac,
		lines:         (size + LineBytes - 1) / LineBytes,
	}
	cs.regions = append(cs.regions, r)
	return r
}

// Regions returns all registered regions.
func (cs *CodeSpace) Regions() []*Region { return cs.regions }

// TotalCodeBytes returns the summed size of all registered regions.
func (cs *CodeSpace) TotalCodeBytes() int {
	total := 0
	for _, r := range cs.regions {
		total += r.Size
	}
	return total
}
