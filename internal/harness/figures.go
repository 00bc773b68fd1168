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
	{"all", "Available reproductions (paper table/figure numbers):", []NamedBuilder{
		{"T1", TableT1},
		{"1", Fig01}, {"2", Fig02}, {"3", Fig03}, {"4", Fig04}, {"5", Fig05},
		{"6", Fig06}, {"7", Fig07}, {"8", Fig08}, {"9", Fig09}, {"10", Fig10},
		{"11", Fig11}, {"12", Fig12}, {"13", Fig13}, {"14", Fig14}, {"15", Fig15},
		{"16", Fig16}, {"17", Fig17}, {"18", Fig18}, {"19", Fig19},
		{"20", Fig20}, {"21", Fig21}, {"22", Fig22}, {"23", Fig23}, {"24", Fig24},
		{"25", Fig25}, {"26", Fig26}, {"27", Fig27},
	}},
	{"numa", "NUMA scaling figures (2x10-core topology; -figure numa):", []NamedBuilder{
		{"N1", FigN1}, {"N2", FigN2}, {"N3", FigN3},
	}},
	{"htap", "HTAP figures (OLAP micro + TPC-C x analytical mix; -figure htap):", []NamedBuilder{
		{"H1", FigH1}, {"H2", FigH2}, {"H3", FigH3},
	}},
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

// figRow is one declared figure row: the cell that produces it plus the
// leading label cells identifying it on the figure's axes.
type figRow struct {
	labels []string
	spec   CellSpec
}

// cellList accumulates a figure's rows in presentation order.
type cellList struct {
	rows []figRow
}

func (c *cellList) add(spec CellSpec, labels ...string) {
	c.rows = append(c.rows, figRow{labels: labels, spec: spec})
}

// render submits every declared cell to the runner's worker pool at once and
// renders the rows in declaration order, so the figure is identical to a
// serial run regardless of worker count.
func (c *cellList) render(r *Runner, cells func(*Result) []string) [][]string {
	specs := make([]CellSpec, len(c.rows))
	for i := range c.rows {
		specs[i] = c.rows[i].spec
	}
	results := r.RunAll(specs)
	out := make([][]string, len(c.rows))
	for i := range c.rows {
		out[i] = append(append([]string{}, c.rows[i].labels...), cells(results[i])...)
	}
	return out
}

func ipcCell(res *Result) []string { return []string{f2(res.IPC())} }

func stallsPerKICells(res *Result) []string { return stallCells(res.StallsPerKI()) }

func stallsPerTxCells(res *Result) []string { return stallCells(res.StallsPerTx()) }

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

func microIPCBySize(r *Runner, rw bool) *Figure {
	mode := "read-only"
	id := "1"
	if rw {
		mode, id = "read-write", "20"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Effect of database size on IPC (micro, %s, 1 row/txn)", mode),
		Header: []string{"System", "Size", "IPC"},
	}
	var cl cellList
	for _, sys := range systems.All() {
		for _, size := range SizeLabels() {
			cl.add(r.MicroCell(sys, size, 1, rw, false), sys.String(), string(size))
		}
	}
	f.Rows = cl.render(r, ipcCell)
	f.Notes = append(f.Notes, "paper: IPC barely reaches 1 of 4; drops once data outgrows the 20MB LLC")
	return f
}

// Fig01 reproduces Figure 1 (read-only panel; Figure 20 is the RW twin).
func Fig01(r *Runner) *Figure { return microIPCBySize(r, false) }

// Fig20 reproduces appendix Figure 20 (read-write IPC by size).
func Fig20(r *Runner) *Figure { return microIPCBySize(r, true) }

func microStallsBySize(r *Runner, rw bool) *Figure {
	mode, id := "read-only", "2"
	if rw {
		mode, id = "read-write", "21"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Stall cycles per k-instruction vs database size (micro, %s)", mode),
		Header: stallHeader("System", "Size"),
	}
	var cl cellList
	for _, sys := range systems.All() {
		for _, size := range SizeLabels() {
			cl.add(r.MicroCell(sys, size, 1, rw, false), sys.String(), string(size))
		}
	}
	f.Rows = cl.render(r, stallsPerKICells)
	f.Notes = append(f.Notes, "paper: L1I stalls dominate everywhere except HyPer; HyPer's LLC-D per kI explodes beyond LLC capacity")
	return f
}

// Fig02 reproduces Figure 2 (read-only; Figure 21 is the RW twin).
func Fig02(r *Runner) *Figure { return microStallsBySize(r, false) }

// Fig21 reproduces appendix Figure 21.
func Fig21(r *Runner) *Figure { return microStallsBySize(r, true) }

func microStallsPerTx(r *Runner, rw bool) *Figure {
	mode, id := "read-only", "3"
	if rw {
		mode, id = "read-write", "22"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Stall cycles per transaction at 100GB (micro, %s, 1 row/txn)", mode),
		Header: stallHeader("System"),
	}
	var cl cellList
	for _, sys := range systems.All() {
		cl.add(r.MicroCell(sys, Size100GB, 1, rw, false), sys.String())
	}
	f.Rows = cl.render(r, stallsPerTxCells)
	f.Notes = append(f.Notes, "paper: HyPer's LLC-D flips from worst per-kI to among the best per-txn; DBMS D's instruction stalls are the largest")
	return f
}

// Fig03 reproduces Figure 3 (Figure 22 is the RW twin).
func Fig03(r *Runner) *Figure { return microStallsPerTx(r, false) }

// Fig22 reproduces appendix Figure 22.
func Fig22(r *Runner) *Figure { return microStallsPerTx(r, true) }

var workRows = []int{1, 10, 100}

func microIPCByWork(r *Runner, rw bool) *Figure {
	mode, id := "read-only", "4"
	if rw {
		mode, id = "read-write", "23"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Effect of work per transaction on IPC (micro, %s, 100GB)", mode),
		Header: []string{"System", "Rows/txn", "IPC"},
	}
	var cl cellList
	for _, sys := range systems.All() {
		for _, n := range workRows {
			cl.add(r.MicroCell(sys, Size100GB, n, rw, false), sys.String(), fmt.Sprint(n))
		}
	}
	f.Rows = cl.render(r, ipcCell)
	f.Notes = append(f.Notes, "paper: disk-based IPC rises slightly with work per txn; in-memory IPC falls")
	return f
}

// Fig04 reproduces Figure 4 (Figure 23 is the RW twin).
func Fig04(r *Runner) *Figure { return microIPCByWork(r, false) }

// Fig23 reproduces appendix Figure 23.
func Fig23(r *Runner) *Figure { return microIPCByWork(r, true) }

func microStallsByWork(r *Runner, rw bool, perTx bool) *Figure {
	mode := "read-only"
	if rw {
		mode = "read-write"
	}
	unit, id := "k-instruction", "5"
	switch {
	case !perTx && rw:
		id = "24"
	case perTx && !rw:
		unit, id = "transaction", "6"
	case perTx && rw:
		unit, id = "transaction", "25"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Stall cycles per %s vs work per transaction (micro, %s, 100GB)", unit, mode),
		Header: stallHeader("System", "Rows/txn"),
	}
	var cl cellList
	for _, sys := range systems.All() {
		for _, n := range workRows {
			cl.add(r.MicroCell(sys, Size100GB, n, rw, false), sys.String(), fmt.Sprint(n))
		}
	}
	cells := stallsPerKICells
	if perTx {
		cells = stallsPerTxCells
	}
	f.Rows = cl.render(r, cells)
	if perTx {
		f.Notes = append(f.Notes, "paper: LLC-D per txn grows ~linearly with rows probed; Shore-MT largest (non-cache-conscious index)")
	} else {
		f.Notes = append(f.Notes, "paper: I-stalls per kI fall with more rows per txn (loop locality); D-stalls rise")
	}
	return f
}

// Fig05 reproduces Figure 5 (Figure 24 is the RW twin).
func Fig05(r *Runner) *Figure { return microStallsByWork(r, false, false) }

// Fig24 reproduces appendix Figure 24.
func Fig24(r *Runner) *Figure { return microStallsByWork(r, true, false) }

// Fig06 reproduces Figure 6 (Figure 25 is the RW twin).
func Fig06(r *Runner) *Figure { return microStallsByWork(r, false, true) }

// Fig25 reproduces appendix Figure 25.
func Fig25(r *Runner) *Figure { return microStallsByWork(r, true, true) }

// Fig07 reproduces Figure 7: % of execution time inside the OLTP engine.
func Fig07(r *Runner) *Figure {
	f := &Figure{
		ID:     "7",
		Title:  "Share of time inside the OLTP engine vs work per transaction (micro RO, 100GB)",
		Header: []string{"System", "Rows/txn", "Inside engine"},
	}
	var cl cellList
	for _, sys := range []systems.Kind{systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		for _, n := range workRows {
			cl.add(r.MicroCell(sys, Size100GB, n, false, false), sys.String(), fmt.Sprint(n))
		}
	}
	f.Rows = cl.render(r, func(res *Result) []string {
		return []string{pct(res.EngineFraction())}
	})
	f.Notes = append(f.Notes, "paper: engine share grows with rows/txn; smallest growth for DBMS D (heavy outside-engine stack)")
	return f
}

// Fig08 reproduces Figure 8: TPC-B IPC.
func Fig08(r *Runner) *Figure {
	f := &Figure{
		ID:     "8",
		Title:  "IPC while running TPC-B (100GB)",
		Header: []string{"System", "IPC"},
	}
	var cl cellList
	for _, sys := range systems.All() {
		cl.add(r.TPCBCell(sys, Size100GB), sys.String())
	}
	f.Rows = cl.render(r, ipcCell)
	f.Notes = append(f.Notes, "paper: IPC above the 1-row micro-benchmark thanks to branch/teller/history locality; HyPer highest")
	return f
}

// Fig09 reproduces Figure 9: TPC-B stall cycles per k-instruction.
func Fig09(r *Runner) *Figure {
	f := &Figure{
		ID:     "9",
		Title:  "Stall cycles per k-instruction while running TPC-B (100GB)",
		Header: stallHeader("System"),
	}
	var cl cellList
	for _, sys := range systems.All() {
		cl.add(r.TPCBCell(sys, Size100GB), sys.String())
	}
	f.Rows = cl.render(r, stallsPerKICells)
	f.Notes = append(f.Notes, "paper: instruction stalls dominate for every system; no severe long-latency data misses")
	return f
}

// tpccAllSystems declares the shared TPC-C cells behind Figures 10-12.
func tpccAllSystems(r *Runner) cellList {
	var cl cellList
	for _, sys := range systems.All() {
		cl.add(r.TPCCCell(sys, systems.Options{}, Size100GB, 1), sys.String())
	}
	return cl
}

// Fig10 reproduces Figure 10: TPC-C IPC.
func Fig10(r *Runner) *Figure {
	f := &Figure{
		ID:     "10",
		Title:  "IPC while running TPC-C (100GB)",
		Header: []string{"System", "IPC"},
	}
	cl := tpccAllSystems(r)
	f.Rows = cl.render(r, ipcCell)
	return f
}

// Fig11 reproduces Figure 11: TPC-C stall cycles per k-instruction.
func Fig11(r *Runner) *Figure {
	f := &Figure{
		ID:     "11",
		Title:  "Stall cycles per k-instruction while running TPC-C (100GB)",
		Header: stallHeader("System"),
	}
	cl := tpccAllSystems(r)
	f.Rows = cl.render(r, stallsPerKICells)
	f.Notes = append(f.Notes, "paper: instruction stalls well below TPC-B (longer txns, scan loops); HyPer's LLC-D reappears")
	return f
}

// Fig12 reproduces Figure 12: TPC-C stall cycles per transaction.
func Fig12(r *Runner) *Figure {
	f := &Figure{
		ID:     "12",
		Title:  "Stall cycles per transaction while running TPC-C (100GB)",
		Header: stallHeader("System"),
	}
	cl := tpccAllSystems(r)
	f.Rows = cl.render(r, stallsPerTxCells)
	return f
}

// dbmsMConfigs are the four index x compilation ablation points of
// Figures 13/14/26.
func dbmsMConfigs() []struct {
	Label string
	Opts  systems.Options
} {
	return []struct {
		Label string
		Opts  systems.Options
	}{
		{"Hash w/ compilation", systems.Options{Index: engine.IndexHash, HasIndexOverride: true}},
		{"Hash w/o compilation", systems.Options{Index: engine.IndexHash, HasIndexOverride: true, DisableCompilation: true}},
		{"B-tree w/ compilation", systems.Options{Index: engine.IndexCCTree512, HasIndexOverride: true}},
		{"B-tree w/o compilation", systems.Options{Index: engine.IndexCCTree512, HasIndexOverride: true, DisableCompilation: true}},
	}
}

func indexCompileMicro(r *Runner, rw bool) *Figure {
	mode, id := "read-only", "13"
	if rw {
		mode, id = "read-write", "26"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("DBMS M index/compilation ablation, micro %s 10 rows (100GB), stalls per k-instruction", mode),
		Header: stallHeader("Configuration"),
	}
	var cl cellList
	for _, c := range dbmsMConfigs() {
		cl.add(r.MicroCellOpts(systems.DBMSM, c.Opts, Size100GB, 10, rw, 1), c.Label)
	}
	f.Rows = cl.render(r, stallsPerKICells)
	f.Notes = append(f.Notes, "paper: compilation halves instruction stalls; the B-tree has 2-4x the hash index's LLC-D stalls")
	return f
}

// Fig13 reproduces Figure 13 (Figure 26 is the RW twin).
func Fig13(r *Runner) *Figure { return indexCompileMicro(r, false) }

// Fig26 reproduces appendix Figure 26.
func Fig26(r *Runner) *Figure { return indexCompileMicro(r, true) }

// Fig14 reproduces Figure 14: the same ablation under TPC-C.
func Fig14(r *Runner) *Figure {
	f := &Figure{
		ID:     "14",
		Title:  "DBMS M index/compilation ablation, TPC-C (100GB), stalls per k-instruction",
		Header: stallHeader("Configuration"),
	}
	var cl cellList
	for _, c := range dbmsMConfigs() {
		cl.add(r.TPCCCell(systems.DBMSM, c.Opts, Size100GB, 1), c.Label)
	}
	f.Rows = cl.render(r, stallsPerKICells)
	f.Notes = append(f.Notes,
		"hash configuration keeps the B-tree on the scanned tables (order_line/new_order), as DBMS M's dual-index design allows",
		"paper: compilation cuts instruction stalls for both; no significant data stalls for TPC-C either way")
	return f
}

func dataTypeFig(r *Runner, rw bool) *Figure {
	mode, id := "read-only", "15"
	if rw {
		mode, id = "read-write", "27"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("String vs Long columns, micro %s 1 row (100GB), stalls per k-instruction", mode),
		Header: stallHeader("System", "Type"),
	}
	var cl cellList
	for _, sys := range []systems.Kind{systems.VoltDB, systems.HyPer, systems.DBMSM} {
		for _, str := range []bool{true, false} {
			label := "Long"
			if str {
				label = "String"
			}
			cl.add(r.MicroCell(sys, Size100GB, 1, rw, str), sys.String(), label)
		}
	}
	f.Rows = cl.render(r, stallsPerKICells)
	f.Notes = append(f.Notes, "paper: LLC-D per kI lower for String on the tree-indexed systems (better spatial locality per compare); no real change for hash-indexed DBMS M")
	return f
}

// Fig15 reproduces Figure 15 (Figure 27 is the RW twin).
func Fig15(r *Runner) *Figure { return dataTypeFig(r, false) }

// Fig27 reproduces appendix Figure 27.
func Fig27(r *Runner) *Figure { return dataTypeFig(r, true) }

// mtSystems are the systems of the multi-threaded experiments (the paper
// excludes HyPer, whose demo build was single-threaded).
var mtSystems = []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM}

// mtMicroCells declares the shared multi-threaded micro cells of
// Figures 16/18.
func mtMicroCells(r *Runner) cellList {
	var cl cellList
	for _, sys := range mtSystems {
		cl.add(r.MicroCellOpts(sys, systems.Options{}, Size100GB, 1, false, r.Scale.MTCores), sys.String())
	}
	return cl
}

// mtTPCCCells declares the shared multi-threaded TPC-C cells of
// Figures 17/19.
func mtTPCCCells(r *Runner) cellList {
	var cl cellList
	for _, sys := range mtSystems {
		cl.add(r.TPCCCell(sys, systems.Options{}, Size100GB, r.Scale.MTCores), sys.String())
	}
	return cl
}

// Fig16 reproduces Figure 16: multi-threaded IPC, micro RO.
func Fig16(r *Runner) *Figure {
	f := &Figure{
		ID:     "16",
		Title:  fmt.Sprintf("Multi-threaded IPC, micro RO 1 row (100GB, %d cores)", r.Scale.MTCores),
		Header: []string{"System", "IPC"},
	}
	cl := mtMicroCells(r)
	f.Rows = cl.render(r, ipcCell)
	f.Notes = append(f.Notes, "paper: multi-threaded IPC stays below 1, matching the single-threaded conclusions")
	return f
}

// Fig17 reproduces Figure 17: multi-threaded IPC, TPC-C.
func Fig17(r *Runner) *Figure {
	f := &Figure{
		ID:     "17",
		Title:  fmt.Sprintf("Multi-threaded IPC, TPC-C (100GB, %d cores)", r.Scale.MTCores),
		Header: []string{"System", "IPC"},
	}
	cl := mtTPCCCells(r)
	f.Rows = cl.render(r, ipcCell)
	return f
}

// Fig18 reproduces Figure 18: multi-threaded stalls/kI, micro RO.
func Fig18(r *Runner) *Figure {
	f := &Figure{
		ID:     "18",
		Title:  fmt.Sprintf("Multi-threaded stall cycles per k-instruction, micro RO 1 row (100GB, %d cores)", r.Scale.MTCores),
		Header: stallHeader("System"),
	}
	cl := mtMicroCells(r)
	f.Rows = cl.render(r, stallsPerKICells)
	return f
}

// Fig19 reproduces Figure 19: multi-threaded stalls/kI, TPC-C.
func Fig19(r *Runner) *Figure {
	f := &Figure{
		ID:     "19",
		Title:  fmt.Sprintf("Multi-threaded stall cycles per k-instruction, TPC-C (100GB, %d cores)", r.Scale.MTCores),
		Header: stallHeader("System"),
	}
	cl := mtTPCCCells(r)
	f.Rows = cl.render(r, stallsPerKICells)
	f.Notes = append(f.Notes, "paper: same stall profile as the single-threaded runs")
	return f
}
