package harness

import (
	"fmt"
	"strings"

	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/systems"
)

// Builder renders one paper figure from (cached) cell measurements.
type Builder func(*Runner) *Figure

// Family is one keyword-addressable set of figures, in presentation order.
type Family struct {
	// Keyword is the -figure argument that expands to the whole family.
	Keyword string
	// Heading introduces the family in `oltpsim -list`.
	Heading string
	Figures []NamedBuilder
}

// NamedBuilder is one figure of a family.
type NamedBuilder struct {
	ID    string
	Build Builder
}

// Families is the one registry of figures, in `-list` order. "all" is the
// paper (Table 1 and Figures 1-27; appendix figures 20-27 are the read-write
// twins of their main-text counterparts) and nothing else: its quick-scale
// output is locked byte-for-byte by testdata/golden_quick, so the NUMA and
// HTAP extensions and the live families (wall clock, never golden-locked)
// are reached only through their own keywords or explicit IDs.
var Families = []Family{
	{"all", "Available reproductions (paper table/figure numbers):", append([]NamedBuilder{{"T1", TableT1}},
		simulated("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14",
			"15", "16", "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27")...)},
	{"numa", "NUMA scaling figures (2x10-core topology; -figure numa):", simulated("N1", "N2", "N3")},
	{"htap", "HTAP figures (OLAP micro + TPC-C x analytical mix; -figure htap):", simulated("H1", "H2", "H3")},
	{"serve", "Serving figures (live oltpd/oltpdrive loopback runs; -figure serve):", []NamedBuilder{
		{"S1", FigS1}, {"S2", FigS2}, {"S3", FigS3},
	}},
	{"scenario", "Scenario figures (time-compressed load profiles; -figure scenario):", []NamedBuilder{
		{"C1", FigC1}, {"C2", FigC2},
	}},
	{"islands", "Islands figures (multi-node cluster with 2PC; -figure islands):", []NamedBuilder{
		{"I1", FigI1}, {"I2", FigI2}, {"I3", FigI3},
	}},
}

// FamilyIDs returns the figure IDs the keyword expands to, in presentation
// order (nil for an unknown keyword): "all" is the paper set "T1", "1".."27".
func FamilyIDs(keyword string) (ids []string) {
	for _, f := range Families {
		if f.Keyword != keyword {
			continue
		}
		for _, fig := range f.Figures {
			ids = append(ids, fig.ID)
		}
	}
	return ids
}

// FigureBuilder resolves a figure ID against every family.
func FigureBuilder(id string) (Builder, bool) {
	for _, f := range Families {
		for _, fig := range f.Figures {
			if fig.ID == id {
				return fig.Build, true
			}
		}
	}
	return nil, false
}

// ExpandFigureIDs resolves a comma-separated -figure argument into concrete
// figure IDs: a family keyword expands to the family, everything else must
// name a known figure. Unknown or empty IDs are an error — a typo must fail
// loudly, not silently skip a figure (duplicates are preserved: the runner's
// cell cache makes them free, and output order mirrors the request).
func ExpandFigureIDs(arg string) ([]string, error) {
	var ids []string
	for _, id := range strings.Split(arg, ",") {
		id = strings.TrimSpace(id)
		if fam := FamilyIDs(id); fam != nil {
			ids = append(ids, fam...)
			continue
		}
		if _, ok := FigureBuilder(id); !ok {
			return nil, fmt.Errorf("harness: unknown figure %q", id)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// TableT1 prints the simulated server parameters (paper Table 1).
func TableT1(r *Runner) *Figure {
	cfg := core.IvyBridge(1)
	f := &Figure{
		ID:     "T1",
		Title:  "Server parameters (simulated; paper Table 1)",
		Header: []string{"Parameter", "Value"},
	}
	add := func(k, v string) { f.Rows = append(f.Rows, []string{k, v}) }
	add("Processor model", "Intel Xeon E5-2640 v2 (Ivy Bridge), simulated")
	add("L1I / L1D (per core)", fmt.Sprintf("%dKB / %dKB, %d-cycle miss latency",
		cfg.L1I.SizeBytes>>10, cfg.L1D.SizeBytes>>10, cfg.L1I.MissPenalty))
	add("L2 (per core)", fmt.Sprintf("%dKB, %d-cycle miss latency",
		cfg.L2.SizeBytes>>10, cfg.L2.MissPenalty))
	add("LLC (shared)", fmt.Sprintf("%dMB, %d-cycle miss latency",
		cfg.LLC.SizeBytes>>20, cfg.LLC.MissPenalty))
	add("Line size", fmt.Sprintf("%dB", cfg.L1I.LineBytes))
	add("Ideal no-miss IPC", fmt.Sprintf("%.0f (paper's measured loop IPC)", core.BaseIPC))
	add("I-prefetch depth", fmt.Sprintf("%d lines", cfg.IPrefetchLines))
	f.Notes = append(f.Notes,
		fmt.Sprintf("scale profile %q: 10GB -> %dMB proxy, 100GB -> %dMB proxy",
			r.Scale.Name, r.Scale.Bytes[Size10GB]>>20, r.Scale.Bytes[Size100GB]>>20))
	return f
}

// simFigure declares one simulated figure: rows generated at the runner's
// scale, each a cell plus the label cells that lead it, and one column
// formatter over every row's Result. rw is handed to the row generator, so a
// read-only figure and its read-write twin are two entries over one
// generator. A "{cores}" in the title is the scale's multi-threaded core
// count.
type simFigure struct {
	id, title string
	header    []string
	rw        bool
	rows      func(r *Runner, rw bool) []figRow
	cols      func(*Result) []string
	notes     []string
}

// figRow is one declared figure row: the leading label cells identifying it
// on the figure's axes, and the cell that measures it.
type figRow struct {
	labels []string
	spec   CellSpec
}

// build submits every row's cell to the runner's worker pool at once and
// renders the rows in declaration order, so the figure is identical to a
// serial run regardless of worker count.
func (f *simFigure) build(r *Runner) *Figure {
	rows := f.rows(r, f.rw)
	specs := make([]CellSpec, len(rows))
	for i := range rows {
		specs[i] = rows[i].spec
	}
	fig := &Figure{
		ID:     f.id,
		Title:  strings.ReplaceAll(f.title, "{cores}", fmt.Sprint(r.Scale.MTCores)),
		Header: append([]string(nil), f.header...),
		Notes:  append([]string(nil), f.notes...),
	}
	for i, res := range r.RunAll(specs) {
		fig.Rows = append(fig.Rows, append(append([]string{}, rows[i].labels...), f.cols(res)...))
	}
	return fig
}

// simFigureByID finds a simulated figure's declaration; nil for Table 1, the
// live figures and unknown IDs.
func simFigureByID(id string) *simFigure {
	for i := range simFigures {
		if simFigures[i].id == id {
			return &simFigures[i]
		}
	}
	return nil
}

// simulated returns the named builders of the given simulated figures.
func simulated(ids ...string) []NamedBuilder {
	out := make([]NamedBuilder, len(ids))
	for i, id := range ids {
		f := simFigureByID(id)
		if f == nil {
			panic("harness: no simulated figure " + id)
		}
		out[i] = NamedBuilder{id, f.build}
	}
	return out
}

func ipcCell(res *Result) []string { return []string{f2(res.IPC())} }

func tputCell(res *Result) []string { return []string{f2(res.TxPerMCycle())} }

func engineShareCell(res *Result) []string { return []string{pct(res.EngineFraction())} }

func stallsPerKICells(res *Result) []string { return stallCells(res.StallsPerKI()) }

func stallsPerTxCells(res *Result) []string { return stallCells(res.StallsPerTx()) }

func numaStallsPerKICells(res *Result) []string { return numaStallCells(res.StallsPerKI()) }

// simFigures is every simulated figure: the paper's (Figures 1-27), the
// NUMA scaling figures N1-N3 and the HTAP figures H1-H3.
//
// The N figures extend the paper's multicore analysis (section 7) to the
// two-socket topology of its own server (Table 1): throughput, IPC and the
// stall breakdown as the worker count grows from a few cores on one socket
// to the full 2x10-core machine, with the database either partitioned across
// sockets (each partition homed with its worker) or spread uniformly. The
// paper's follow-up ("Micro-architectural Analysis of OLAP") shows the same
// stall taxonomy splitting sharply at the socket boundary; these figures are
// that experiment for OLTP.
//
// The H figures open the HTAP axis: the same engine serving the paper's
// TPC-C write mix, a pure analytical scan/aggregate load, and an interleaved
// hybrid of the two — across one and two sockets. The OLAP study finds scans
// inverting the OLTP stall profile (data-bound, near-zero L1i pressure);
// these figures show both profiles, and their mixture, from one engine on
// one machine.
var simFigures = []simFigure{
	{id: "1", title: "Effect of database size on IPC (micro, read-only, 1 row/txn)",
		header: []string{"System", "Size", "IPC"}, rows: microBySize, cols: ipcCell,
		notes: []string{"paper: IPC barely reaches 1 of 4; drops once data outgrows the 20MB LLC"}},
	{id: "20", title: "Effect of database size on IPC (micro, read-write, 1 row/txn)",
		header: []string{"System", "Size", "IPC"}, rw: true, rows: microBySize, cols: ipcCell,
		notes: []string{"paper: IPC barely reaches 1 of 4; drops once data outgrows the 20MB LLC"}},
	{id: "2", title: "Stall cycles per k-instruction vs database size (micro, read-only)",
		header: stallHeader("System", "Size"), rows: microBySize, cols: stallsPerKICells,
		notes: []string{"paper: L1I stalls dominate everywhere except HyPer; HyPer's LLC-D per kI explodes beyond LLC capacity"}},
	{id: "21", title: "Stall cycles per k-instruction vs database size (micro, read-write)",
		header: stallHeader("System", "Size"), rw: true, rows: microBySize, cols: stallsPerKICells,
		notes: []string{"paper: L1I stalls dominate everywhere except HyPer; HyPer's LLC-D per kI explodes beyond LLC capacity"}},
	{id: "3", title: "Stall cycles per transaction at 100GB (micro, read-only, 1 row/txn)",
		header: stallHeader("System"), rows: micro100GB, cols: stallsPerTxCells,
		notes: []string{"paper: HyPer's LLC-D flips from worst per-kI to among the best per-txn; DBMS D's instruction stalls are the largest"}},
	{id: "22", title: "Stall cycles per transaction at 100GB (micro, read-write, 1 row/txn)",
		header: stallHeader("System"), rw: true, rows: micro100GB, cols: stallsPerTxCells,
		notes: []string{"paper: HyPer's LLC-D flips from worst per-kI to among the best per-txn; DBMS D's instruction stalls are the largest"}},
	{id: "4", title: "Effect of work per transaction on IPC (micro, read-only, 100GB)",
		header: []string{"System", "Rows/txn", "IPC"}, rows: microByWork(systems.All()), cols: ipcCell,
		notes: []string{"paper: disk-based IPC rises slightly with work per txn; in-memory IPC falls"}},
	{id: "23", title: "Effect of work per transaction on IPC (micro, read-write, 100GB)",
		header: []string{"System", "Rows/txn", "IPC"}, rw: true, rows: microByWork(systems.All()), cols: ipcCell,
		notes: []string{"paper: disk-based IPC rises slightly with work per txn; in-memory IPC falls"}},
	{id: "5", title: "Stall cycles per k-instruction vs work per transaction (micro, read-only, 100GB)",
		header: stallHeader("System", "Rows/txn"), rows: microByWork(systems.All()), cols: stallsPerKICells,
		notes: []string{"paper: I-stalls per kI fall with more rows per txn (loop locality); D-stalls rise"}},
	{id: "24", title: "Stall cycles per k-instruction vs work per transaction (micro, read-write, 100GB)",
		header: stallHeader("System", "Rows/txn"), rw: true, rows: microByWork(systems.All()), cols: stallsPerKICells,
		notes: []string{"paper: I-stalls per kI fall with more rows per txn (loop locality); D-stalls rise"}},
	{id: "6", title: "Stall cycles per transaction vs work per transaction (micro, read-only, 100GB)",
		header: stallHeader("System", "Rows/txn"), rows: microByWork(systems.All()), cols: stallsPerTxCells,
		notes: []string{"paper: LLC-D per txn grows ~linearly with rows probed; Shore-MT largest (non-cache-conscious index)"}},
	{id: "25", title: "Stall cycles per transaction vs work per transaction (micro, read-write, 100GB)",
		header: stallHeader("System", "Rows/txn"), rw: true, rows: microByWork(systems.All()), cols: stallsPerTxCells,
		notes: []string{"paper: LLC-D per txn grows ~linearly with rows probed; Shore-MT largest (non-cache-conscious index)"}},
	{id: "7", title: "Share of time inside the OLTP engine vs work per transaction (micro RO, 100GB)",
		header: []string{"System", "Rows/txn", "Inside engine"},
		rows:   microByWork([]systems.Kind{systems.DBMSD, systems.VoltDB, systems.DBMSM}), cols: engineShareCell,
		notes: []string{"paper: engine share grows with rows/txn; smallest growth for DBMS D (heavy outside-engine stack)"}},
	{id: "8", title: "IPC while running TPC-B (100GB)",
		header: []string{"System", "IPC"}, rows: tpcb, cols: ipcCell,
		notes: []string{"paper: IPC above the 1-row micro-benchmark thanks to branch/teller/history locality; HyPer highest"}},
	{id: "9", title: "Stall cycles per k-instruction while running TPC-B (100GB)",
		header: stallHeader("System"), rows: tpcb, cols: stallsPerKICells,
		notes: []string{"paper: instruction stalls dominate for every system; no severe long-latency data misses"}},
	{id: "10", title: "IPC while running TPC-C (100GB)",
		header: []string{"System", "IPC"}, rows: tpcc(systems.All(), false), cols: ipcCell},
	{id: "11", title: "Stall cycles per k-instruction while running TPC-C (100GB)",
		header: stallHeader("System"), rows: tpcc(systems.All(), false), cols: stallsPerKICells,
		notes: []string{"paper: instruction stalls well below TPC-B (longer txns, scan loops); HyPer's LLC-D reappears"}},
	{id: "12", title: "Stall cycles per transaction while running TPC-C (100GB)",
		header: stallHeader("System"), rows: tpcc(systems.All(), false), cols: stallsPerTxCells},
	{id: "13", title: "DBMS M index/compilation ablation, micro read-only 10 rows (100GB), stalls per k-instruction",
		header: stallHeader("Configuration"), rows: ablationMicro, cols: stallsPerKICells,
		notes: []string{"paper: compilation halves instruction stalls; the B-tree has 2-4x the hash index's LLC-D stalls"}},
	{id: "26", title: "DBMS M index/compilation ablation, micro read-write 10 rows (100GB), stalls per k-instruction",
		header: stallHeader("Configuration"), rw: true, rows: ablationMicro, cols: stallsPerKICells,
		notes: []string{"paper: compilation halves instruction stalls; the B-tree has 2-4x the hash index's LLC-D stalls"}},
	{id: "14", title: "DBMS M index/compilation ablation, TPC-C (100GB), stalls per k-instruction",
		header: stallHeader("Configuration"), rows: ablationTPCC, cols: stallsPerKICells,
		notes: []string{
			"hash configuration keeps the B-tree on the scanned tables (order_line/new_order), as DBMS M's dual-index design allows",
			"paper: compilation cuts instruction stalls for both; no significant data stalls for TPC-C either way",
		}},
	{id: "15", title: "String vs Long columns, micro read-only 1 row (100GB), stalls per k-instruction",
		header: stallHeader("System", "Type"), rows: dataTypes, cols: stallsPerKICells,
		notes: []string{"paper: LLC-D per kI lower for String on the tree-indexed systems (better spatial locality per compare); no real change for hash-indexed DBMS M"}},
	{id: "27", title: "String vs Long columns, micro read-write 1 row (100GB), stalls per k-instruction",
		header: stallHeader("System", "Type"), rw: true, rows: dataTypes, cols: stallsPerKICells,
		notes: []string{"paper: LLC-D per kI lower for String on the tree-indexed systems (better spatial locality per compare); no real change for hash-indexed DBMS M"}},
	{id: "16", title: "Multi-threaded IPC, micro RO 1 row (100GB, {cores} cores)",
		header: []string{"System", "IPC"}, rows: mtMicro, cols: ipcCell,
		notes: []string{"paper: multi-threaded IPC stays below 1, matching the single-threaded conclusions"}},
	{id: "17", title: "Multi-threaded IPC, TPC-C (100GB, {cores} cores)",
		header: []string{"System", "IPC"}, rows: tpcc(mtSystems, true), cols: ipcCell},
	{id: "18", title: "Multi-threaded stall cycles per k-instruction, micro RO 1 row (100GB, {cores} cores)",
		header: stallHeader("System"), rows: mtMicro, cols: stallsPerKICells},
	{id: "19", title: "Multi-threaded stall cycles per k-instruction, TPC-C (100GB, {cores} cores)",
		header: stallHeader("System"), rows: tpcc(mtSystems, true), cols: stallsPerKICells,
		notes: []string{"paper: same stall profile as the single-threaded runs"}},

	{id: "N1", title: "Multi-socket throughput scaling (micro RO 1 row, 10GB, VoltDB, 2x10-core Ivy Bridge)",
		header: []string{"Placement", "Cores", "Sockets", "Tx/Mcycle"}, rows: numaGrid, cols: tputCell,
		notes: []string{"partitioned placement keeps every DRAM fill on the worker's socket; uniform placement sends about half of them over QPI once both sockets are active"}},
	{id: "N2", title: "Multi-socket IPC (micro RO 1 row, 10GB, VoltDB, 2x10-core Ivy Bridge)",
		header: []string{"Placement", "Cores", "Sockets", "IPC"}, rows: numaGrid, cols: ipcCell,
		notes: []string{"per-core IPC holds within a socket and dips when uniform placement crosses it (remote-DRAM fills join the stall mix)"}},
	// N3 splits the cross-socket stall components out over the read-write
	// grid, which also exercises ownership transfers.
	{id: "N3", title: "Multi-socket stall cycles per k-instruction (micro RW 1 row, 10GB, VoltDB, 2x10-core Ivy Bridge)",
		header: numaStallHeader("Placement", "Cores", "Sockets"), rw: true, rows: numaGrid, cols: numaStallsPerKICells,
		notes: []string{"Rem-I/Rem-D are the cross-socket share: remote-LLC forwards, remote-DRAM fills and write ownership transfers; zero on one socket by construction"}},

	{id: "H1", title: "HTAP throughput (OLAP micro by size; TPC-C x analytical mix, 10GB, VoltDB, partitioned placement)",
		header: []string{"Workload", "Cores", "Sockets", "Tx/Mcycle"}, rows: htapGrid, cols: tputCell,
		notes: []string{
			"requests/Mcycle falls as the analytical share rises: one scan query costs thousands of point transactions' worth of cycles",
			"olap-micro throughput collapses past the 20MB LLC — every scanned line beyond it is a DRAM fill",
		}},
	{id: "H2", title: "HTAP IPC (OLAP micro by size; TPC-C x analytical mix, 10GB, VoltDB, partitioned placement)",
		header: []string{"Workload", "Cores", "Sockets", "IPC"}, rows: htapGrid, cols: ipcCell,
		notes: []string{"scan loops retire from a few hot lines, so OLAP IPC is set almost entirely by data stalls — high while the table fits the LLC, low beyond it"}},
	// H3 splits the cross-socket components out, since the two-socket rows
	// ship scan traffic over the interconnect.
	{id: "H3", title: "HTAP stall cycles per k-instruction (OLAP micro by size; TPC-C x analytical mix, 10GB, VoltDB)",
		header: numaStallHeader("Workload", "Cores", "Sockets"), rows: htapGrid, cols: numaStallsPerKICells,
		notes: []string{
			"the analytical rows invert the paper's OLTP balance: data stalls (LLC-D, and Rem-D on two sockets) dwarf the instruction side that dominates point transactions",
			"full scans read every partition, so even partitioned placement ships remote lines once the second socket holds half the data",
		}},
}

// The row generators of simFigures.

// microBySize: every system at the paper's four sizes, 1 row/txn.
func microBySize(r *Runner, rw bool) (rows []figRow) {
	for _, sys := range systems.All() {
		for _, size := range SizeLabels() {
			rows = append(rows, figRow{[]string{sys.String(), string(size)}, r.MicroCell(sys, size, 1, rw, false)})
		}
	}
	return rows
}

// micro100GB: every system at 100GB, 1 row/txn.
func micro100GB(r *Runner, rw bool) (rows []figRow) {
	for _, sys := range systems.All() {
		rows = append(rows, figRow{[]string{sys.String()}, r.MicroCell(sys, Size100GB, 1, rw, false)})
	}
	return rows
}

// microByWork: the given systems at 1, 10 and 100 rows/txn, 100GB.
func microByWork(kinds []systems.Kind) func(*Runner, bool) []figRow {
	return func(r *Runner, rw bool) (rows []figRow) {
		for _, sys := range kinds {
			for _, n := range []int{1, 10, 100} {
				rows = append(rows, figRow{[]string{sys.String(), fmt.Sprint(n)}, r.MicroCell(sys, Size100GB, n, rw, false)})
			}
		}
		return rows
	}
}

func tpcb(r *Runner, _ bool) (rows []figRow) {
	for _, sys := range systems.All() {
		rows = append(rows, figRow{[]string{sys.String()}, r.TPCBCell(sys, Size100GB)})
	}
	return rows
}

// tpcc: the given systems on TPC-C at 100GB, one core or the scale's
// multi-threaded count.
func tpcc(kinds []systems.Kind, mt bool) func(*Runner, bool) []figRow {
	return func(r *Runner, _ bool) (rows []figRow) {
		cores := 1
		if mt {
			cores = r.Scale.MTCores
		}
		for _, sys := range kinds {
			rows = append(rows, figRow{[]string{sys.String()}, r.TPCCCell(sys, systems.Options{}, Size100GB, cores)})
		}
		return rows
	}
}

// mtSystems are the systems of the multi-threaded experiments (the paper
// excludes HyPer, whose demo build was single-threaded).
var mtSystems = []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM}

func mtMicro(r *Runner, _ bool) (rows []figRow) {
	for _, sys := range mtSystems {
		rows = append(rows, figRow{[]string{sys.String()}, r.MicroCellOpts(sys, systems.Options{}, Size100GB, 1, false, r.Scale.MTCores)})
	}
	return rows
}

// dbmsMConfigs are the four index x compilation ablation points of
// Figures 13, 14 and 26.
var dbmsMConfigs = []struct {
	label string
	opts  systems.Options
}{
	{"Hash w/ compilation", systems.Options{Index: engine.IndexHash, HasIndexOverride: true}},
	{"Hash w/o compilation", systems.Options{Index: engine.IndexHash, HasIndexOverride: true, DisableCompilation: true}},
	{"B-tree w/ compilation", systems.Options{Index: engine.IndexCCTree512, HasIndexOverride: true}},
	{"B-tree w/o compilation", systems.Options{Index: engine.IndexCCTree512, HasIndexOverride: true, DisableCompilation: true}},
}

func ablationMicro(r *Runner, rw bool) (rows []figRow) {
	for _, c := range dbmsMConfigs {
		rows = append(rows, figRow{[]string{c.label}, r.MicroCellOpts(systems.DBMSM, c.opts, Size100GB, 10, rw, 1)})
	}
	return rows
}

func ablationTPCC(r *Runner, _ bool) (rows []figRow) {
	for _, c := range dbmsMConfigs {
		rows = append(rows, figRow{[]string{c.label}, r.TPCCCell(systems.DBMSM, c.opts, Size100GB, 1)})
	}
	return rows
}

// dataTypes: the tree- and hash-indexed in-memory systems with String and
// Long columns, 1 row/txn at 100GB.
func dataTypes(r *Runner, rw bool) (rows []figRow) {
	for _, sys := range []systems.Kind{systems.VoltDB, systems.HyPer, systems.DBMSM} {
		rows = append(rows,
			figRow{[]string{sys.String(), "String"}, r.MicroCell(sys, Size100GB, 1, rw, true)},
			figRow{[]string{sys.String(), "Long"}, r.MicroCell(sys, Size100GB, 1, rw, false)})
	}
	return rows
}

// numaGrid: partitioned then uniform placement at 2, 5 and 10 cores (one
// socket) and 12 and 20 (across the boundary; 20 is the full machine).
func numaGrid(r *Runner, rw bool) (rows []figRow) {
	for _, placement := range []core.HomePlacement{core.PlacePartitioned, core.PlaceInterleaved} {
		for _, cores := range []int{2, 5, 10, 12, 20} {
			rows = append(rows, figRow{[]string{placement.String(), fmt.Sprint(cores), sockets(cores)},
				r.NUMAMicroCell(cores, placement == core.PlacePartitioned, rw)})
		}
	}
	return rows
}

// htapGrid: the OLAP microbenchmark at the paper's four sizes, then the
// hybrid at 0, 20 and 100% analytical share (pure OLTP, a mixed dashboard
// load, pure OLAP) on 2 cores (one socket) and 12 (two).
func htapGrid(r *Runner, _ bool) (rows []figRow) {
	for _, size := range SizeLabels() {
		rows = append(rows, figRow{[]string{"olap-micro/" + string(size), "1", "1"}, r.OLAPMicroCell(size)})
	}
	for _, cores := range []int{2, 12} {
		for _, olapPct := range []int{0, 20, 100} {
			rows = append(rows, figRow{[]string{fmt.Sprintf("htap/%d%%olap", olapPct), fmt.Sprint(cores), sockets(cores)},
				r.HTAPCell(cores, olapPct)})
		}
	}
	return rows
}

func sockets(cores int) string { return fmt.Sprint(core.IvyBridge(cores).Sockets) }
