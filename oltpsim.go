// Package oltpsim is a full reproduction, in pure Go, of the experimental
// apparatus of "Micro-architectural Analysis of In-memory OLTP" (Sirin,
// Tözün, Porobic, Ailamaki — SIGMOD 2016).
//
// The library contains:
//
//   - a deterministic micro-architectural simulator with the paper's Ivy
//     Bridge cache hierarchy (Table 1) and a simulated PMU measuring IPC and
//     per-level instruction/data stall cycles exactly the way the paper does;
//   - five OLTP engine archetypes built from scratch on shared substrates —
//     Shore-MT, DBMS D, VoltDB, HyPer and DBMS M — each reproducing the
//     architectural properties the paper attributes to that system (buffer
//     pools, centralized locking, disk-page B-trees; partitioned execution,
//     cache-conscious trees, adaptive radix trees, hash indexes, MVCC/OCC,
//     transaction compilation, SQL front-ends);
//   - the paper's three workloads: the micro-benchmark (read-only /
//     read-write, Long / String(50) columns, 1-100 rows per transaction),
//     TPC-B, and TPC-C with all five transaction types;
//   - an experiment harness that reproduces every table and figure of the
//     paper (Table 1 and Figures 1-27).
//
// # Quick start
//
//	e := oltpsim.NewSystem(oltpsim.VoltDB, oltpsim.SystemOptions{})
//	w := oltpsim.NewMicro(oltpsim.MicroConfig{Rows: 1 << 20, RowsPerTx: 1})
//	res := oltpsim.Bench(e, w, oltpsim.BenchOpts{Warm: 1000, Measure: 2000})
//	fmt.Printf("IPC %.2f, stalls/kI %.0f\n", res.IPC(), res.StallsPerKI().Total())
//
// To reproduce a paper figure:
//
//	fig, err := oltpsim.ReproduceFigure("2", oltpsim.QuickScale())
//
// See README.md for the system inventory (the intro and "Package map") and
// the simulated hardware that stands in for the paper's counters
// ("Topology"), PAPER.md for the paper's findings, and
// testdata/golden_quick.md for every figure as reproduced at quick scale.
package oltpsim

import (
	"fmt"

	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/harness"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// SystemKind identifies one of the five analyzed system archetypes.
type SystemKind = systems.Kind

// The five systems of the paper.
const (
	// ShoreMT is the open-source disk-based storage manager.
	ShoreMT = systems.ShoreMT
	// DBMSD is the commercial disk-based DBMS ("DBMS D").
	DBMSD = systems.DBMSD
	// VoltDB is the partitioned in-memory engine without compilation.
	VoltDB = systems.VoltDB
	// HyPer is the partitioned in-memory engine with aggressive compilation.
	HyPer = systems.HyPer
	// DBMSM is the commercial in-memory MVCC engine ("DBMS M").
	DBMSM = systems.DBMSM
)

// AllSystems returns the five archetypes in the paper's order.
func AllSystems() []SystemKind { return systems.All() }

// SystemOptions tunes a system instance (cores, partitions, index override,
// the compilation ablation).
type SystemOptions = systems.Options

// Engine is a configured OLTP system instance running on a simulated machine.
type Engine = engine.Engine

// EngineConfig assembles a custom archetype from the substrates (see the
// customsystem example).
type EngineConfig = engine.Config

// CostParams, RegionSpec and RegionSpecs are the instruction-side
// calibration of an archetype.
type (
	CostParams  = engine.CostParams
	RegionSpec  = engine.RegionSpec
	RegionSpecs = engine.RegionSpecs
)

// Substrate selector kinds for custom engine configurations.
type (
	StorageKind = engine.StorageKind
	IndexKind   = engine.IndexKind
	FrontEnd    = engine.FrontEnd
)

// Re-exported substrate selectors.
const (
	StorageHeap = engine.StorageHeap
	StorageRows = engine.StorageRows
	StorageMVCC = engine.StorageMVCC

	IndexBTree8K   = engine.IndexBTree8K
	IndexCCTree64  = engine.IndexCCTree64
	IndexCCTree512 = engine.IndexCCTree512
	IndexHash      = engine.IndexHash
	IndexART       = engine.IndexART

	FESQLPerRequest = engine.FESQLPerRequest
	FEDispatch      = engine.FEDispatch
	FECompiled      = engine.FECompiled
)

// Tx is a transaction handle inside a stored procedure.
type Tx = engine.Tx

// Table is one table of an engine.
type Table = engine.Table

// NewSystem builds a fresh instance of one of the paper's five archetypes.
func NewSystem(kind SystemKind, opts SystemOptions) *Engine {
	return systems.New(kind, opts)
}

// NewCustomSystem builds an engine from an explicit configuration. Machine
// defaults to a single-core Ivy Bridge when unset.
func NewCustomSystem(cfg EngineConfig) *Engine {
	if cfg.Machine.Cores == 0 {
		cfg.Machine = core.IvyBridge(1)
	}
	return engine.New(cfg)
}

// IvyBridge returns the paper's simulated server configuration (Table 1)
// with the given core count: one socket up to 10 cores, sockets of 10 above
// (each with its own 20MB LLC and memory controller).
func IvyBridge(cores int) core.HierarchyConfig { return core.IvyBridge(cores) }

// IvyBridge2S returns the paper's full two-socket server: 2x10 cores,
// per-socket LLCs, cross-socket coherence and remote-access latencies.
func IvyBridge2S() core.HierarchyConfig { return core.IvyBridge2S() }

// HomePlacement selects the NUMA home-socket policy for data lines on
// multi-socket machines.
type HomePlacement = core.HomePlacement

// Home placement policies.
const (
	// PlaceInterleaved stripes data homes across sockets by 4KB page.
	PlaceInterleaved = core.PlaceInterleaved
	// PlacePartitioned homes each partition's data with its worker's socket.
	PlacePartitioned = core.PlacePartitioned
)

// Workload generates transactions against an engine.
type Workload = workload.Workload

// Workload configurations.
type (
	MicroConfig  = workload.MicroConfig
	TPCBConfig   = workload.TPCBConfig
	TPCCConfig   = workload.TPCCConfig
	OLAPConfig   = workload.OLAPConfig
	HybridConfig = workload.HybridConfig
)

// NewMicro builds the paper's micro-benchmark (section 4).
func NewMicro(cfg MicroConfig) Workload { return workload.NewMicro(cfg) }

// NewTPCB builds the TPC-B workload (section 5.1).
func NewTPCB(cfg TPCBConfig) Workload { return workload.NewTPCB(cfg) }

// NewTPCC builds the TPC-C workload (section 5.2).
func NewTPCC(cfg TPCCConfig) Workload { return workload.NewTPCC(cfg) }

// NewOLAP builds the analytical scan/aggregate microbenchmark.
func NewOLAP(cfg OLAPConfig) Workload { return workload.NewOLAP(cfg) }

// NewHybrid builds the HTAP workload: the TPC-C mix interleaved with
// analytical readers at a configurable percentage.
func NewHybrid(cfg HybridConfig) Workload { return workload.NewHybrid(cfg) }

// AggSpec is one aggregate fold of the analytical executor (COUNT/SUM/MIN/
// MAX over a column), used with Tx.AnalyticAggregate in stored procedures.
type AggSpec = engine.AggSpec

// Aggregate operators.
const (
	AggCount = engine.AggCount
	AggSum   = engine.AggSum
	AggMin   = engine.AggMin
	AggMax   = engine.AggMax
)

// BenchOpts shapes a measurement run.
type BenchOpts = harness.BenchOpts

// Result is a measured run: per-worker PMU windows plus derived metrics
// (IPC, stall breakdowns per k-instruction and per transaction, the
// inside-the-engine time share).
type Result = harness.Result

// StallCycles is the six-way stall breakdown the paper plots.
type StallCycles = core.StallCycles

// Bench runs the paper's measurement protocol (populate, warm up, measure)
// for workload w on engine e.
func Bench(e *Engine, w Workload, opts BenchOpts) *Result {
	return harness.Bench(e, w, opts)
}

// Scale maps the paper's database sizes to materialized proxy sizes.
type Scale = harness.Scale

// QuickScale returns the small test/bench scale profile.
func QuickScale() Scale { return harness.QuickScale() }

// DefaultScale returns the `-scale default` profile: full transaction counts
// over mid-sized proxies.
func DefaultScale() Scale { return harness.DefaultScale() }

// Figure is a rendered reproduction of one paper table/figure.
type Figure = harness.Figure

// Runner executes and caches experiment cells; use one Runner across
// figures that share cells. Cells run on a worker pool of up to
// Runner.Workers goroutines (default GOMAXPROCS) with a single-flight cache,
// so concurrent figures sharing cells compute each cell exactly once and
// Runner.RunAll returns results in spec order — output is bit-identical to a
// serial run.
type Runner = harness.Runner

// CellSpec declares one experiment cell (system, workload, run shape) for
// Runner.Run / Runner.RunAll.
type CellSpec = harness.CellSpec

// NewRunner creates an experiment runner at the given scale. Set
// Runner.Workers before the first Run call to bound cell concurrency.
func NewRunner(s Scale) *Runner { return harness.NewRunner(s) }

// FigureIDs lists the reproducible paper tables/figures ("T1", "1".."27").
func FigureIDs() []string { return harness.FamilyIDs("all") }

// NUMAFigureIDs lists the multi-socket scaling figures ("N1".."N3"): the
// paper's analysis extended to the two-socket topology of its own server.
func NUMAFigureIDs() []string { return harness.FamilyIDs("numa") }

// HTAPFigureIDs lists the HTAP figures ("H1".."H3"): the analytical
// scan/aggregate microbenchmark and the TPC-C x analytical hybrid.
func HTAPFigureIDs() []string { return harness.FamilyIDs("htap") }

// ReproduceFigure runs (and renders) one paper figure at the given scale.
// For several figures sharing cells, create a Runner and use BuildFigure.
func ReproduceFigure(id string, s Scale) (*Figure, error) {
	return BuildFigure(NewRunner(s), id)
}

// BuildFigures renders several figures against one shared runner: every
// cell they render (Runner.FigureCells) is simulated first on the worker
// pool, each once, then the figures render in ids order, which the returned
// slice matches.
func BuildFigures(r *Runner, ids []string) ([]*Figure, error) {
	return harness.BuildFigures(r, ids)
}

// BuildFigure renders one figure of any family — paper, NUMA, HTAP or one of
// the live serve, scenario and islands families — using r's cell cache.
func BuildFigure(r *Runner, id string) (*Figure, error) {
	b, ok := harness.FigureBuilder(id)
	if !ok {
		return nil, fmt.Errorf("oltpsim: unknown figure %q (see FigureIDs, NUMAFigureIDs, HTAPFigureIDs; `oltpsim -list` names every figure)", id)
	}
	return b(r), nil
}
