// Package systems defines the five OLTP system archetypes the paper analyzes
// as configurations of the engine framework:
//
//   - Shore-MT: open-source disk-based storage manager — buffer pool,
//     centralized 2PL lock manager, 8KB-page B+-tree, ARIES-style logging,
//     hard-coded transaction plans (Shore-Kits), no SQL layer.
//   - DBMS D: commercial disk-based system — everything Shore-MT has plus a
//     heavyweight SQL stack (per-request parsing and optimization, session
//     and network layers) with the largest instruction footprint.
//   - VoltDB: partitioned in-memory engine — one worker per partition, no
//     locks, cache-line-sized B+-tree nodes, a Java dispatch layer in front
//     of an interpreting C++ execution engine (no transaction compilation).
//   - HyPer: partitioned in-memory engine — adaptive radix tree, transactions
//     compiled to tight machine code (tiny instruction footprint).
//   - DBMS M: non-partitioned in-memory engine of a traditional commercial
//     vendor — MVCC/OCC, hash and cache-conscious B-tree indexes, moderate
//     transaction compilation, and a large legacy front-end inherited from
//     the disk-based product.
//
// The instruction budgets and code-region sizes below are the per-archetype
// calibration: they encode which layers exist and how heavy each is, once,
// globally — not per experiment.
package systems

import (
	"fmt"
	"strings"

	"oltpsim/internal/core"
	"oltpsim/internal/engine"
)

// Kind selects an archetype.
type Kind int

// The five analyzed systems.
const (
	ShoreMT Kind = iota
	DBMSD
	VoltDB
	HyPer
	DBMSM
	numKinds
)

var kindNames = [numKinds]string{"Shore-MT", "DBMS D", "VoltDB", "HyPer", "DBMS M"}

// String returns the paper's name for the system.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// All returns the five kinds in the paper's presentation order.
func All() []Kind { return []Kind{ShoreMT, DBMSD, VoltDB, HyPer, DBMSM} }

// ParseKind resolves a command-line system name ("shore-mt", "dbmsd",
// "voltdb", "hyper", "dbmsm"; case-insensitive, punctuation-insensitive) to
// its Kind.
func ParseKind(name string) (Kind, error) {
	canon := strings.ToLower(strings.NewReplacer("-", "", "_", "", " ", "").Replace(name))
	switch canon {
	case "shoremt", "shore":
		return ShoreMT, nil
	case "dbmsd", "d":
		return DBMSD, nil
	case "voltdb", "volt":
		return VoltDB, nil
	case "hyper":
		return HyPer, nil
	case "dbmsm", "m":
		return DBMSM, nil
	}
	return 0, fmt.Errorf("systems: unknown system %q (want shore-mt|dbmsd|voltdb|hyper|dbmsm)", name)
}

// InMemory reports whether the archetype is a memory-optimized system.
func (k Kind) InMemory() bool { return k == VoltDB || k == HyPer || k == DBMSM }

// Partitioned reports whether the archetype partitions data per worker.
func (k Kind) Partitioned() bool { return k == VoltDB || k == HyPer }

// Options tune a system instance.
type Options struct {
	// Cores is the number of simulated cores (default 1).
	Cores int
	// Partitions overrides the partition count for partitioned systems
	// (default: one per core). Non-partitioned systems always use 1.
	Partitions int
	// Index overrides the default primary-index kind. The zero value keeps
	// the archetype default (DBMS M: hash, as the paper uses for the
	// micro-benchmarks and TPC-B; set IndexCCTree512 for TPC-C).
	Index engine.IndexKind
	// HasIndexOverride marks Index as set (IndexKind's zero value is a
	// legitimate kind).
	HasIndexOverride bool
	// DisableCompilation turns off transaction compilation for DBMS M
	// (the paper's Figure 13/14/26 ablation). Ignored by other systems.
	DisableCompilation bool
	// Sockets overrides the socket count of the simulated machine. The zero
	// value keeps the IvyBridge default: one socket for up to 10 cores, then
	// sockets of 10 (IvyBridge(20) is the paper's full 2x10 topology).
	Sockets int
	// Placement selects the NUMA home policy for data (uniform page
	// interleave, the zero value, or partitioned first-touch). Only
	// meaningful on multi-socket machines.
	Placement core.HomePlacement
}

// New builds a fresh instance of the archetype. Every call returns a fully
// independent engine on its own simulated machine — the configs below are
// built from scratch per call, so concurrent experiment cells never share
// state through this package.
func New(kind Kind, opts Options) *engine.Engine {
	if opts.Cores <= 0 {
		opts.Cores = 1
	}
	parts := 1
	if kind.Partitioned() {
		parts = opts.Partitions
		if parts <= 0 {
			parts = opts.Cores
		}
	}
	var cfg engine.Config
	switch kind {
	case ShoreMT:
		cfg = shoreMTConfig()
	case DBMSD:
		cfg = dbmsDConfig()
	case VoltDB:
		cfg = voltDBConfig()
	case HyPer:
		cfg = hyperConfig()
	case DBMSM:
		cfg = dbmsMConfig(opts.DisableCompilation)
	default:
		panic(fmt.Sprintf("systems: unknown kind %d", kind))
	}
	cfg.Machine = core.IvyBridge(opts.Cores)
	if opts.Sockets > 0 {
		cfg.Machine.Sockets = opts.Sockets
	}
	cfg.Machine.Placement = opts.Placement
	cfg.Partitions = parts
	if opts.HasIndexOverride {
		cfg.Index = opts.Index
	}
	return engine.New(cfg)
}

// shoreMTConfig: a storage manager without the layers above it. Fat
// transaction, lock, and buffer-pool code paths (decades of C++), but no
// parser/optimizer at all — the paper notes its instruction stalls sit well
// below DBMS D's for exactly this reason.
func shoreMTConfig() engine.Config {
	return engine.Config{
		Name:     "Shore-MT",
		Storage:  engine.StorageHeap,
		Index:    engine.IndexBTree8K,
		FrontEnd: engine.FEDispatch,
		UseLocks: true,
		OtherCPI: 0.35,
		Costs: engine.CostParams{
			NetRecv:       600,
			DispatchBase:  900,  // Shore-Kits driver
			PlanExecPerOp: 2000, // hard-coded C++ plan
			ScanPerRow:    240,
			AggPerRow:     90,
			TxnBegin:      1300,
			TxnCommit:     2200,
			LockAcquire:   600,
			LockRelease:   300,
			BPFix:         450,
			IdxNodeBase:   250,
			IdxPerCmpByte: 3,
			StorageAccess: 450,
			LogBase:       550,
			LogPerByte:    2,
		},
		Regions: engine.RegionSpecs{
			Net:        engine.RegionSpec{Size: 16 << 10, BPI: 5, Hot: 0.7},
			Dispatch:   engine.RegionSpec{Size: 24 << 10, BPI: 5, Hot: 0.6},
			PlanExec:   engine.RegionSpec{Size: 32 << 10, BPI: 7, Hot: 0.45},
			Txn:        engine.RegionSpec{Size: 48 << 10, BPI: 7, Hot: 0.45},
			Lock:       engine.RegionSpec{Size: 32 << 10, BPI: 7, Hot: 0.45},
			BufferPool: engine.RegionSpec{Size: 28 << 10, BPI: 7, Hot: 0.45},
			Index:      engine.RegionSpec{Size: 24 << 10, BPI: 6, Hot: 0.55},
			Storage:    engine.RegionSpec{Size: 24 << 10, BPI: 6, Hot: 0.55},
			Log:        engine.RegionSpec{Size: 24 << 10, BPI: 6, Hot: 0.55},
			Parser:     engine.RegionSpec{Size: 4 << 10, BPI: 5},
			Optimizer:  engine.RegionSpec{Size: 4 << 10, BPI: 5},
			MVCC:       engine.RegionSpec{Size: 4 << 10, BPI: 5},
		},
	}
}

// dbmsDConfig: the commercial disk-based stack — Shore-MT-like storage
// manager behind a large SQL front-end that parses and optimizes every
// statement of every request.
func dbmsDConfig() engine.Config {
	return engine.Config{
		Name:     "DBMS D",
		Storage:  engine.StorageHeap,
		Index:    engine.IndexBTree8K,
		FrontEnd: engine.FESQLPerRequest,
		UseLocks: true,
		OtherCPI: 0.38,
		Costs: engine.CostParams{
			NetRecv:         2000,
			DispatchBase:    1600, // session management
			ParsePerToken:   700,
			OptimizeBase:    6500,
			OptimizePerPred: 850,
			PlanExecPerOp:   2800,
			ScanPerRow:      280,
			AggPerRow:       110,
			TxnBegin:        1200,
			TxnCommit:       2000,
			LockAcquire:     580,
			LockRelease:     300,
			BPFix:           430,
			IdxNodeBase:     240,
			IdxPerCmpByte:   3,
			StorageAccess:   450,
			LogBase:         550,
			LogPerByte:      2,
		},
		Regions: engine.RegionSpecs{
			Net:        engine.RegionSpec{Size: 32 << 10, BPI: 7, Hot: 0.4},
			Dispatch:   engine.RegionSpec{Size: 32 << 10, BPI: 7, Hot: 0.4},
			Parser:     engine.RegionSpec{Size: 64 << 10, BPI: 8, Hot: 0.25},
			Optimizer:  engine.RegionSpec{Size: 48 << 10, BPI: 8, Hot: 0.25},
			PlanExec:   engine.RegionSpec{Size: 40 << 10, BPI: 7, Hot: 0.4},
			Txn:        engine.RegionSpec{Size: 48 << 10, BPI: 7, Hot: 0.45},
			Lock:       engine.RegionSpec{Size: 32 << 10, BPI: 7, Hot: 0.45},
			BufferPool: engine.RegionSpec{Size: 28 << 10, BPI: 7, Hot: 0.45},
			Index:      engine.RegionSpec{Size: 24 << 10, BPI: 6, Hot: 0.55},
			Storage:    engine.RegionSpec{Size: 24 << 10, BPI: 6, Hot: 0.55},
			Log:        engine.RegionSpec{Size: 24 << 10, BPI: 6, Hot: 0.55},
			MVCC:       engine.RegionSpec{Size: 4 << 10, BPI: 5},
		},
	}
}

// voltDBConfig: partitioned, lock-free execution behind a Java dispatch
// layer; interpreted plans (no compilation); line-sized tree nodes.
func voltDBConfig() engine.Config {
	return engine.Config{
		Name:     "VoltDB",
		Storage:  engine.StorageRows,
		Index:    engine.IndexCCTree64,
		FrontEnd: engine.FEDispatch,
		OtherCPI: 0.26,
		Costs: engine.CostParams{
			NetRecv:       1600,
			DispatchBase:  5000, // Java-side deserialization + plan cache
			PlanExecPerOp: 2100, // interpreting C++ execution engine
			ScanPerRow:    140,
			AggPerRow:     55,
			TxnBegin:      400,
			TxnCommit:     600,
			IdxNodeBase:   90,
			IdxPerCmpByte: 2,
			StorageAccess: 170,
			LogBase:       200,
			LogPerByte:    1,
		},
		Regions: engine.RegionSpecs{
			Net:        engine.RegionSpec{Size: 24 << 10, BPI: 5, Hot: 0.7},
			Dispatch:   engine.RegionSpec{Size: 96 << 10, BPI: 6, Hot: 0.55},
			PlanExec:   engine.RegionSpec{Size: 64 << 10, BPI: 6, Hot: 0.55},
			Txn:        engine.RegionSpec{Size: 12 << 10, BPI: 5, Hot: 0.8},
			Index:      engine.RegionSpec{Size: 12 << 10, BPI: 4, Hot: 0.9},
			Storage:    engine.RegionSpec{Size: 8 << 10, BPI: 4, Hot: 0.9},
			Log:        engine.RegionSpec{Size: 8 << 10, BPI: 4, Hot: 0.9},
			Parser:     engine.RegionSpec{Size: 4 << 10, BPI: 5},
			Optimizer:  engine.RegionSpec{Size: 4 << 10, BPI: 5},
			Lock:       engine.RegionSpec{Size: 4 << 10, BPI: 5},
			BufferPool: engine.RegionSpec{Size: 4 << 10, BPI: 5},
			MVCC:       engine.RegionSpec{Size: 4 << 10, BPI: 5},
		},
	}
}

// hyperConfig: aggressive transaction compilation — a simple transaction
// retires only a few hundred instructions from a few KB of hot code, so
// instruction stalls vanish and the data side dominates (the paper's
// explanation for HyPer's LLC-bound behaviour on large data).
func hyperConfig() engine.Config {
	return engine.Config{
		Name:     "HyPer",
		Storage:  engine.StorageRows,
		Index:    engine.IndexART,
		FrontEnd: engine.FECompiled,
		OtherCPI: 0.08,
		Costs: engine.CostParams{
			NetRecv:       80,
			DispatchBase:  60, // thin runtime entry
			CompiledEntry: 100,
			CompiledPerOp: 100,
			ScanPerRow:    20,
			AggPerRow:     6,
			TxnBegin:      40,
			TxnCommit:     70,
			IdxNodeBase:   25,
			IdxPerCmpByte: 1,
			StorageAccess: 40,
			LogBase:       50,
			LogPerByte:    1,
		},
		Regions: engine.RegionSpecs{
			Net:          engine.RegionSpec{Size: 4 << 10, BPI: 4},
			Dispatch:     engine.RegionSpec{Size: 4 << 10, BPI: 4},
			CompiledProc: engine.RegionSpec{Size: 4 << 10, BPI: 4},
			Txn:          engine.RegionSpec{Size: 4 << 10, BPI: 4},
			Index:        engine.RegionSpec{Size: 6 << 10, BPI: 4},
			Storage:      engine.RegionSpec{Size: 4 << 10, BPI: 4},
			Log:          engine.RegionSpec{Size: 4 << 10, BPI: 4},
			PlanExec:     engine.RegionSpec{Size: 4 << 10, BPI: 4},
			Parser:       engine.RegionSpec{Size: 4 << 10, BPI: 4},
			Optimizer:    engine.RegionSpec{Size: 4 << 10, BPI: 4},
			Lock:         engine.RegionSpec{Size: 4 << 10, BPI: 4},
			BufferPool:   engine.RegionSpec{Size: 4 << 10, BPI: 4},
			MVCC:         engine.RegionSpec{Size: 4 << 10, BPI: 4},
		},
	}
}

// dbmsMConfig: a lean, compiled, MVCC engine buried under the legacy session
// and dispatch code of the disk-based product it ships with — the paper's
// explanation for its high instruction stalls on short transactions.
func dbmsMConfig(disableCompilation bool) engine.Config {
	cfg := engine.Config{
		Name:     "DBMS M",
		Storage:  engine.StorageMVCC,
		Index:    engine.IndexHash,
		FrontEnd: engine.FECompiled,
		OtherCPI: 0.26,
		Costs: engine.CostParams{
			NetRecv:       1600,
			DispatchBase:  7000, // legacy session/dispatch of the host product
			CompiledEntry: 450,
			CompiledPerOp: 420,
			ScanPerRow:    80,
			AggPerRow:     18,
			TxnBegin:      450,
			TxnCommit:     700,
			IdxNodeBase:   70,
			IdxPerCmpByte: 2,
			StorageAccess: 140,
			LogBase:       220,
			LogPerByte:    1,
			MVCCRead:      240,
			MVCCCommit:    560,
		},
		Regions: engine.RegionSpecs{
			Net:          engine.RegionSpec{Size: 32 << 10, BPI: 7, Hot: 0.5},
			Dispatch:     engine.RegionSpec{Size: 128 << 10, BPI: 8, Hot: 0.35},
			CompiledProc: engine.RegionSpec{Size: 6 << 10, BPI: 4},
			Txn:          engine.RegionSpec{Size: 16 << 10, BPI: 6, Hot: 0.7},
			MVCC:         engine.RegionSpec{Size: 16 << 10, BPI: 5, Hot: 0.7},
			Index:        engine.RegionSpec{Size: 10 << 10, BPI: 4, Hot: 0.9},
			Storage:      engine.RegionSpec{Size: 8 << 10, BPI: 4, Hot: 0.9},
			Log:          engine.RegionSpec{Size: 8 << 10, BPI: 4, Hot: 0.9},
			PlanExec:     engine.RegionSpec{Size: 96 << 10, BPI: 7, Hot: 0.45},
			Parser:       engine.RegionSpec{Size: 4 << 10, BPI: 5},
			Optimizer:    engine.RegionSpec{Size: 4 << 10, BPI: 5},
			Lock:         engine.RegionSpec{Size: 4 << 10, BPI: 5},
			BufferPool:   engine.RegionSpec{Size: 4 << 10, BPI: 5},
		},
	}
	if disableCompilation {
		// Without compilation DBMS M interprets statements through a
		// general-purpose executor: more instructions per op, spread over a
		// much larger, branchier code region (paper Figures 13/14/26 show
		// roughly 2x the instruction stalls).
		cfg.Name = "DBMS M (no compilation)"
		cfg.FrontEnd = engine.FEDispatch
		cfg.Costs.PlanExecPerOp = 2600
		cfg.Costs.ScanPerRow = 200
		cfg.Costs.AggPerRow = 60
		cfg.Regions.PlanExec = engine.RegionSpec{Size: 128 << 10, BPI: 8, Hot: 0.3}
	}
	return cfg
}
