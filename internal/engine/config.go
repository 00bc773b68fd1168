// Package engine composes the substrates (storage, indexes, concurrency
// control, logging, SQL front-end, compiled procedures) into a configurable
// OLTP engine, on top of the micro-architectural machine in internal/core.
// The five archetypes of the paper (Shore-MT, DBMS D, VoltDB, HyPer, DBMS M)
// are configurations of this engine, defined in internal/systems.
//
// Workloads register stored procedures (Go closures over the transaction op
// API) and invoke them; every op flows through the configured component
// stack, producing both real data traffic in the simulated memory hierarchy
// and the configured instruction stream for each component it crosses.
package engine

import "oltpsim/internal/core"

// StorageKind selects the tuple storage substrate.
type StorageKind int

// Storage kinds.
const (
	// StorageHeap stores rows in slotted 8KB pages behind a buffer pool
	// (disk-based archetypes).
	StorageHeap StorageKind = iota
	// StorageRows stores rows in a cache-line-conscious in-memory row store.
	StorageRows
	// StorageMVCC stores rows in the row store behind multiversion record
	// anchors (DBMS M).
	StorageMVCC
)

// IndexKind selects the primary index implementation.
type IndexKind int

// Index kinds.
const (
	// IndexBTree8K is the disk-style B+-tree on 8KB buffer-pool pages.
	IndexBTree8K IndexKind = iota
	// IndexCCTree64 is the cache-conscious B+-tree with the smallest nodes
	// (VoltDB). Not line-sized despite the name: newShard asks for room for
	// at least four entries, which is two lines (128 bytes) at 8-byte keys.
	IndexCCTree64
	// IndexCCTree512 is the cache-conscious B+-tree with 512-byte nodes
	// (DBMS M's B-tree variant).
	IndexCCTree512
	// IndexHash is the bucket-chained hash index (DBMS M).
	IndexHash
	// IndexART is the adaptive radix tree (HyPer).
	IndexART
)

// FrontEnd selects how requests reach the engine.
type FrontEnd int

// Front-end kinds.
const (
	// FEDispatch (the zero value) is a per-request dispatch layer in front of
	// an interpreting executor, with no per-statement planning. It models
	// VoltDB — Java-side deserialization and a plan-cache lookup in front of
	// the C++ execution engine, statements planned once at procedure
	// registration — and Shore-MT's Shore-Kits driver, whose hard-coded C++
	// transaction plans call straight into the storage manager. The two
	// differ in CostParams.DispatchBase, PlanExecPerOp and the region sizes,
	// not in the path a request takes.
	FEDispatch FrontEnd = iota
	// FESQLPerRequest models DBMS D: every statement of every transaction is
	// parsed and optimized when it executes (ad-hoc SQL through the full
	// commercial stack).
	FESQLPerRequest
	// FECompiled models HyPer and DBMS M's compiled mode: stored procedures
	// are compiled to a small dedicated code region; per-statement work runs
	// from that region.
	FECompiled
)

// CostParams are the per-component instruction budgets of an archetype:
// how many instructions each component retires per unit of work. They encode
// the paper's qualitative inventory (which layers exist and how heavy they
// are); everything data-side is measured, not parameterized.
type CostParams struct {
	// NetRecv is per-request network/session work.
	NetRecv int
	// ParsePerToken is parser instructions per SQL token (FESQLPerRequest).
	ParsePerToken int
	// OptimizeBase/OptimizePerPred are optimizer instructions per statement.
	OptimizeBase    int
	OptimizePerPred int
	// DispatchBase is the per-request dispatch/deserialization layer
	// (VoltDB's Java front-end, DBMS M's legacy session management).
	DispatchBase int
	// PlanExecPerOp is the interpreting executor's cost per database
	// operation (tree-walking for FESQLPerRequest/FEDispatch).
	PlanExecPerOp int
	// CompiledPerOp is the compiled procedure's cost per database operation.
	CompiledPerOp int
	// CompiledEntry is the compiled procedure's fixed entry/exit cost.
	CompiledEntry int
	// ScanPerRow is the per-row cost inside a scan loop.
	ScanPerRow int
	// AggPerRow is the per-row, per-aggregate accumulate cost of the
	// analytical fold operators (added on top of ScanPerRow; 0 models a
	// fold fused into the scan loop for free).
	AggPerRow int
	// TxnBegin/TxnCommit are transaction management costs.
	TxnBegin  int
	TxnCommit int
	// LockAcquire/LockRelease are per-lock lock-manager costs.
	LockAcquire int
	LockRelease int
	// BPFix is the buffer-pool cost per page fix.
	BPFix int
	// IdxNodeBase/IdxPerCmpByte are index costs per node visit.
	IdxNodeBase   int
	IdxPerCmpByte int
	// StorageAccess is the tuple-layer cost per field read/write.
	StorageAccess int
	// LogBase/LogPerByte are logging costs per record.
	LogBase    int
	LogPerByte int
	// MVCCRead/MVCCCommit are version-manager costs.
	MVCCRead   int
	MVCCCommit int
}

// RegionSpec sizes one component's code region.
type RegionSpec struct {
	// Size is the component's total static code footprint in bytes (the
	// cold remainder beyond each invocation's path models rarely-taken
	// branches and version-spanning patches).
	Size int
	// BPI is the effective code bytes consumed per retired instruction
	// (see core.Region.BytesPerInstr).
	BPI float64
	// Hot is the fraction of each invocation's fetched lines shared across
	// invocations (see core.Region.HotFrac). 0 defaults to 1 (fully hot).
	Hot float64
}

// RegionSpecs sizes every component region of an archetype.
type RegionSpecs struct {
	Net, Parser, Optimizer, Dispatch, PlanExec RegionSpec
	Txn, Lock, BufferPool, Index, Storage, Log RegionSpec
	MVCC                                       RegionSpec
	// CompiledProc sizes the per-procedure compiled code regions
	// (FECompiled).
	CompiledProc RegionSpec
}

// Config assembles an archetype.
type Config struct {
	// Name identifies the archetype in reports.
	Name string
	// Machine is the simulated hardware.
	Machine core.HierarchyConfig
	// Partitions is the number of data partitions (VoltDB/HyPer style;
	// 1 for non-partitioned engines).
	Partitions int
	// Storage, Index, FrontEnd pick the substrates.
	Storage StorageKind
	Index   IndexKind
	// FrontEnd picks the request path.
	FrontEnd FrontEnd
	// UseLocks enables the centralized 2PL lock manager.
	UseLocks bool
	// OtherCPI is the non-memory stall component added to the base CPI
	// (branch mispredictions, dependencies) — per-archetype constant.
	OtherCPI float64
	// Costs and Regions are the instruction-side calibration.
	Costs   CostParams
	Regions RegionSpecs
}
