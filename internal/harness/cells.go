package harness

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// CellSpec describes one experiment cell: a system, a workload, and a run
// shape. Equal keys share one measurement within a Runner.
type CellSpec struct {
	Sys     systems.Kind
	SysOpts systems.Options
	// NewWorkload builds a fresh workload instance; parts is the engine's
	// partition count (TPC-C rounds warehouses to it).
	NewWorkload func(parts int) workload.Workload
	// Key must uniquely describe the workload configuration.
	Key string
	// Cores > 1 runs the paper's multi-threaded configuration.
	Cores int
	// Warm and Measure are transaction counts (before scaling by TxFactor).
	Warm, Measure int
	// WarmPopulate runs the population with tracing enabled, leaving the
	// whole dataset resident in the simulated LLC. The paper's 60-second
	// warm-up sweeps cache-sized datasets completely; a short transaction
	// warm-up cannot, so LLC-resident sizes (1MB/10MB) warm this way.
	WarmPopulate bool
	Seed         uint64
}

// cacheKey covers every CellSpec field that shapes the measurement except
// NewWorkload, which Key must describe: two specs with equal keys share one
// cached (and single-flighted) Result within a Runner.
func (s CellSpec) cacheKey() string {
	return fmt.Sprintf("%s|%+v|%s|c%d|w%d|m%d|s%d|wp%v",
		s.Sys, s.SysOpts, s.Key, s.Cores, s.Warm, s.Measure, s.Seed, s.WarmPopulate)
}

// Result is one measured cell: per-worker measurements (one for
// single-threaded runs), as the paper reports.
type Result struct {
	System   string
	Workload string
	PerCore  []core.Measurement
	// Rows and DataBytes record the materialized database.
	Rows      uint64
	DataBytes uint64
}

// IPC averages instructions-per-cycle across workers.
func (r *Result) IPC() float64 {
	var s float64
	for _, m := range r.PerCore {
		s += m.IPC()
	}
	return s / float64(len(r.PerCore))
}

func (r *Result) avgStalls(f func(core.Measurement) core.StallCycles) core.StallCycles {
	var sum core.StallCycles
	for _, m := range r.PerCore {
		s := f(m)
		sum.L1I += s.L1I
		sum.L2I += s.L2I
		sum.LLCI += s.LLCI
		sum.L1D += s.L1D
		sum.L2D += s.L2D
		sum.LLCD += s.LLCD
		sum.RemoteI += s.RemoteI
		sum.RemoteD += s.RemoteD
	}
	return sum.Scale(1 / float64(len(r.PerCore)))
}

// StallsPerKI averages the per-1000-instruction stall breakdown across
// workers (paper Figures 2, 5, 9, 11, 13-15, 18, 19).
func (r *Result) StallsPerKI() core.StallCycles {
	return r.avgStalls(core.Measurement.StallsPerKI)
}

// StallsPerTx averages the per-transaction stall breakdown across workers
// (paper Figures 3, 6, 12).
func (r *Result) StallsPerTx() core.StallCycles {
	return r.avgStalls(core.Measurement.StallsPerTx)
}

// InstructionsPerTx averages retired instructions per transaction.
func (r *Result) InstructionsPerTx() float64 {
	var s float64
	for _, m := range r.PerCore {
		s += m.InstructionsPerTx()
	}
	return s / float64(len(r.PerCore))
}

// EngineFraction averages the share of time inside the OLTP engine
// (paper Figure 7).
func (r *Result) EngineFraction() float64 {
	var s float64
	for _, m := range r.PerCore {
		s += m.EngineFraction()
	}
	return s / float64(len(r.PerCore))
}

// MemStallFraction averages the share of cycles lost to memory stalls.
func (r *Result) MemStallFraction() float64 {
	var s float64
	for _, m := range r.PerCore {
		s += m.MemStallFraction()
	}
	return s / float64(len(r.PerCore))
}

// TxPerMCycle sums worker throughput (transactions per million cycles).
func (r *Result) TxPerMCycle() float64 {
	var s float64
	for _, m := range r.PerCore {
		s += m.TxPerMCycle()
	}
	return s
}

// Runner executes and caches experiment cells at one scale. Cells run on a
// worker pool of up to Workers goroutines (see pool.go); each cell is
// confined to its own Engine/Machine instance, so results are deterministic
// and independent of scheduling.
type Runner struct {
	Scale Scale
	// Verbose, when set, prints one line per executed (non-cached) cell.
	Verbose bool
	// Workers caps the number of cells simulating concurrently. Zero or
	// negative means GOMAXPROCS. Set it before the first Run/RunAll call.
	Workers int

	initOnce sync.Once
	sem      chan struct{}
	mu       sync.Mutex
	cache    map[string]*cellEntry
	printMu  sync.Mutex
	executed atomic.Int64
}

// NewRunner creates a runner for the given scale.
func NewRunner(s Scale) *Runner {
	return &Runner{Scale: s, cache: make(map[string]*cellEntry)}
}

// execute simulates one cell on the calling goroutine. Everything it builds —
// engine, machine, arena, workload, rng — is cell-local, and the workload
// stream is seeded from the spec alone, so the measurement depends only on
// the spec and the scale, never on which worker runs it or when.
func (r *Runner) execute(spec CellSpec) *Result {
	cores := spec.Cores
	if cores <= 0 {
		cores = 1
	}
	opts := spec.SysOpts
	opts.Cores = cores
	e := systems.New(spec.Sys, opts)
	w := spec.NewWorkload(e.Partitions())

	res := Bench(e, w, BenchOpts{
		Warm:         scaleTx(spec.Warm, r.Scale.TxFactor),
		Measure:      scaleTx(spec.Measure, r.Scale.TxFactor),
		Seed:         spec.Seed ^ 0xabcdef,
		WarmPopulate: spec.WarmPopulate,
	})
	r.executed.Add(1)
	if r.Verbose {
		// Diagnostics go to stderr so `-markdown > results.md` stays clean.
		r.printMu.Lock()
		fmt.Fprintf(os.Stderr, "  cell: %-10s %-24s cores=%d  IPC %.2f, %.0f MB\n",
			spec.Sys, w.Name(), cores, res.IPC(), float64(res.DataBytes)/(1<<20))
		r.printMu.Unlock()
	}
	return res
}

// BenchOpts shapes a Bench run.
type BenchOpts struct {
	// Warm transactions run before the measured window; Measure transactions
	// are measured.
	Warm, Measure int
	// Seed drives the workload generator (runs are deterministic).
	Seed uint64
	// WarmPopulate traces the population so an LLC-sized dataset starts
	// cache-resident (see CellSpec.WarmPopulate).
	WarmPopulate bool
}

// Bench runs the paper's measurement protocol — set up, populate (untraced
// unless WarmPopulate), warm up, then measure a counter window — against an
// already-constructed engine, and returns the per-worker measurements.
// Worker w is pinned to simulated core w for the whole run: transactions are
// spread round-robin over the cores, one partition per core on partitioned
// engines, so on multi-socket machines partition p's worker always executes
// on SocketOf(p) — the affinity the engine's partitioned NUMA placement
// (core.PlacePartitioned) homes data against.
func Bench(e *engine.Engine, w workload.Workload, opts BenchOpts) *Result {
	cores := len(e.Machine().CPUs)
	parts := e.Partitions()
	if opts.Measure <= 0 {
		opts.Measure = 1000
	}

	w.Setup(e)
	e.Machine().Arena.EnableTracing(opts.WarmPopulate)
	w.Populate(e)
	e.Machine().Arena.EnableTracing(true)

	rng := workload.NewRand(opts.Seed)
	runTx := func(n int) {
		for i := 0; i < n; i++ {
			c := i % cores
			e.SetCore(c)
			genPart, invokePart := 0, 0
			if parts > 1 {
				genPart, invokePart = c, c
			}
			call := w.Gen(rng, genPart, parts)
			if err := e.Invoke(invokePart, call.Proc, call.Args...); err != nil {
				panic(fmt.Sprintf("harness: %s/%s txn failed: %v",
					e.Config().Name, w.Name(), err))
			}
		}
	}
	runTx(opts.Warm)
	befores := make([]core.Snapshot, cores)
	for c := 0; c < cores; c++ {
		befores[c] = e.Machine().SnapshotCore(c)
	}
	runTx(opts.Measure)

	res := &Result{
		System:    e.Config().Name,
		Workload:  w.Name(),
		DataBytes: e.Machine().Arena.DataAllocated(),
	}
	for _, t := range e.Tables() {
		res.Rows += t.Count()
	}
	for c := 0; c < cores; c++ {
		after := e.Machine().SnapshotCore(c)
		res.PerCore = append(res.PerCore,
			core.NewMeasurement(befores[c], after, e.Machine().Hier.Config(), e.BaseCPI()))
	}
	return res
}

func scaleTx(n int, f float64) int {
	if f <= 0 {
		f = 1
	}
	out := int(float64(n) * f)
	if out < 20 {
		out = 20
	}
	return out
}

// --- cell constructors shared by the figures -------------------------------

// defaultMicroTx returns warm/measure counts by rows-per-transaction.
func defaultMicroTx(rowsPerTx int) (warm, measure int) {
	switch {
	case rowsPerTx >= 100:
		return 150, 300
	case rowsPerTx >= 10:
		return 600, 1200
	default:
		return 1500, 3000
	}
}

// MicroCell builds the spec for a micro-benchmark cell.
func (r *Runner) MicroCell(sys systems.Kind, size SizeLabel, rowsPerTx int, rw, stringKeys bool) CellSpec {
	rows := MicroRows(r.Scale.Bytes[size], stringKeys)
	warm, measure := defaultMicroTx(rowsPerTx)
	return CellSpec{
		Sys: sys,
		NewWorkload: func(parts int) workload.Workload {
			return workload.NewMicro(workload.MicroConfig{
				Rows: rows, RowsPerTx: rowsPerTx, ReadWrite: rw, StringKeys: stringKeys,
			})
		},
		Key:  fmt.Sprintf("micro/%s/r%d/rw=%v/str=%v", size, rowsPerTx, rw, stringKeys),
		Warm: warm, Measure: measure,
		WarmPopulate: r.warmPopulate(size),
		Seed:         42,
	}
}

// warmPopulate reports whether the materialized size fits the LLC with room
// to spare, in which case population doubles as cache warm-up.
func (r *Runner) warmPopulate(size SizeLabel) bool {
	return r.Scale.Bytes[size] <= 32<<20
}

// MicroCellOpts is MicroCell with explicit system options (index override /
// compilation ablation) and core count.
func (r *Runner) MicroCellOpts(sys systems.Kind, opts systems.Options, size SizeLabel,
	rowsPerTx int, rw bool, cores int) CellSpec {
	spec := r.MicroCell(sys, size, rowsPerTx, rw, false)
	spec.SysOpts = opts
	spec.Cores = cores
	return spec
}

// NUMAMicroCell builds one cell of the multi-socket scaling figures
// (FigN1-FigN3): the 1-row micro-benchmark on the partitioned in-memory
// archetype (VoltDB) at the 10GB proxy size — far above a single socket's
// LLC, so where a miss is served from (local DRAM, remote LLC, remote DRAM)
// dominates. cores picks the topology through IvyBridge (one socket up to 10
// cores, 2x10 above); partitioned selects NUMA-aware first-touch placement
// versus the uniform page interleave.
func (r *Runner) NUMAMicroCell(cores int, partitioned, rw bool) CellSpec {
	placement := core.PlaceInterleaved
	if partitioned {
		placement = core.PlacePartitioned
	}
	spec := r.MicroCell(systems.VoltDB, Size10GB, 1, rw, false)
	spec.SysOpts = systems.Options{Cores: cores, Placement: placement}
	spec.Cores = cores
	return spec
}

// OLAPMicroCell builds one cell of the analytical microbenchmark: the
// scan/aggregate mix over the micro-style table at one of the paper's four
// sizes, on the partitioned in-memory archetype.
func (r *Runner) OLAPMicroCell(size SizeLabel) CellSpec {
	rows := MicroRows(r.Scale.Bytes[size], false)
	return CellSpec{
		Sys: systems.VoltDB,
		NewWorkload: func(parts int) workload.Workload {
			return workload.NewOLAP(workload.OLAPConfig{Rows: rows})
		},
		Key:  fmt.Sprintf("olap/%s", size),
		Warm: 40, Measure: 80,
		WarmPopulate: r.warmPopulate(size),
		Seed:         45,
	}
}

// HTAPCell builds one cell of the hybrid grid: TPC-C writers interleaved
// with analytical readers at olapPct percent, on the partitioned in-memory
// archetype at the 10GB proxy size, with each partition homed on its
// worker's socket (the placement a partitioned engine gets for free).
func (r *Runner) HTAPCell(cores, olapPct int) CellSpec {
	bytes := r.Scale.Bytes[Size10GB]
	return CellSpec{
		Sys:     systems.VoltDB,
		SysOpts: systems.Options{Cores: cores, Placement: core.PlacePartitioned},
		NewWorkload: func(parts int) workload.Workload {
			return workload.NewHybrid(workload.HybridConfig{
				TPCC: workload.TPCCConfig{
					Warehouses:           TPCCWarehouses(bytes, parts),
					Items:                10_000,
					CustomersPerDistrict: 600,
					OrdersPerDistrict:    600,
				},
				OLAPPercent: olapPct,
			})
		},
		Key:   fmt.Sprintf("htap/10GB/p%d", olapPct),
		Cores: cores,
		Warm:  40, Measure: 100,
		Seed: 46,
	}
}

// TPCBCell builds the spec for a TPC-B cell.
func (r *Runner) TPCBCell(sys systems.Kind, size SizeLabel) CellSpec {
	branches := TPCBBranches(r.Scale.Bytes[size])
	return CellSpec{
		Sys: sys,
		NewWorkload: func(parts int) workload.Workload {
			return workload.NewTPCB(workload.TPCBConfig{Branches: branches})
		},
		Key:  fmt.Sprintf("tpcb/%s", size),
		Warm: 1500, Measure: 3000,
		Seed: 43,
	}
}

// TPCCCell builds the spec for a TPC-C cell. DBMS M automatically gets its
// B-tree variant (the paper uses the hash index only for micro/TPC-B).
func (r *Runner) TPCCCell(sys systems.Kind, opts systems.Options, size SizeLabel, cores int) CellSpec {
	if sys == systems.DBMSM && !opts.HasIndexOverride {
		opts.Index = engine.IndexCCTree512
		opts.HasIndexOverride = true
	}
	bytes := r.Scale.Bytes[size]
	return CellSpec{
		Sys:     sys,
		SysOpts: opts,
		NewWorkload: func(parts int) workload.Workload {
			return workload.NewTPCC(workload.TPCCConfig{
				Warehouses:           TPCCWarehouses(bytes, parts),
				Items:                10_000,
				CustomersPerDistrict: 600,
				OrdersPerDistrict:    600,
			})
		},
		Key:   fmt.Sprintf("tpcc/%s", size),
		Cores: cores,
		Warm:  250, Measure: 500,
		Seed: 44,
	}
}
