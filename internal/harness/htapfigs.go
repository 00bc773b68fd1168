package harness

import (
	"fmt"

	"oltpsim/internal/core"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// The FigH figures open the HTAP axis: the same engine serving the paper's
// TPC-C write mix, a pure analytical scan/aggregate load, and an interleaved
// hybrid of the two — across one and two sockets. The companion study
// "Micro-architectural Analysis of OLAP" finds scans inverting the OLTP
// stall profile (data-bound, near-zero L1i pressure); these figures show
// both profiles, and their mixture, from one engine on one machine.

// htapMixes are the analytical shares of the hybrid grid: pure OLTP, a
// mixed dashboard load, pure OLAP.
var htapMixes = []int{0, 20, 100}

// htapCoreCounts picks one core count per topology: 2 cores on one socket,
// 12 spanning two (IvyBridge builds sockets of 10).
var htapCoreCounts = []int{2, 12}

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

// htapGrid declares the cells all three FigH figures share: the OLAP
// microbenchmark across the paper's four sizes, then the hybrid mix sweep
// across the two topologies.
func htapGrid(r *Runner) cellList {
	var cl cellList
	for _, size := range SizeLabels() {
		cl.add(r.OLAPMicroCell(size), "olap-micro/"+string(size), "1", "1")
	}
	for _, cores := range htapCoreCounts {
		sockets := fmt.Sprint(core.IvyBridge(cores).Sockets)
		for _, pct := range htapMixes {
			label := fmt.Sprintf("htap/%d%%olap", pct)
			cl.add(r.HTAPCell(cores, pct), label, fmt.Sprint(cores), sockets)
		}
	}
	return cl
}

// FigH1 plots throughput over the HTAP grid.
func FigH1(r *Runner) *Figure {
	f := &Figure{
		ID:     "H1",
		Title:  "HTAP throughput (OLAP micro by size; TPC-C x analytical mix, 10GB, VoltDB, partitioned placement)",
		Header: []string{"Workload", "Cores", "Sockets", "Tx/Mcycle"},
	}
	cl := htapGrid(r)
	f.Rows = cl.render(r, func(res *Result) []string {
		return []string{f2(res.TxPerMCycle())}
	})
	f.Notes = append(f.Notes,
		"requests/Mcycle falls as the analytical share rises: one scan query costs thousands of point transactions' worth of cycles",
		"olap-micro throughput collapses past the 20MB LLC — every scanned line beyond it is a DRAM fill")
	return f
}

// FigH2 plots IPC over the same grid.
func FigH2(r *Runner) *Figure {
	f := &Figure{
		ID:     "H2",
		Title:  "HTAP IPC (OLAP micro by size; TPC-C x analytical mix, 10GB, VoltDB, partitioned placement)",
		Header: []string{"Workload", "Cores", "Sockets", "IPC"},
	}
	cl := htapGrid(r)
	f.Rows = cl.render(r, ipcCell)
	f.Notes = append(f.Notes,
		"scan loops retire from a few hot lines, so OLAP IPC is set almost entirely by data stalls — high while the table fits the LLC, low beyond it")
	return f
}

// FigH3 plots the stall breakdown — with the cross-socket components split
// out, since the two-socket rows ship scan traffic over the interconnect.
func FigH3(r *Runner) *Figure {
	f := &Figure{
		ID:     "H3",
		Title:  "HTAP stall cycles per k-instruction (OLAP micro by size; TPC-C x analytical mix, 10GB, VoltDB)",
		Header: numaStallHeader("Workload", "Cores", "Sockets"),
	}
	cl := htapGrid(r)
	f.Rows = cl.render(r, func(res *Result) []string {
		return numaStallCells(res.StallsPerKI())
	})
	f.Notes = append(f.Notes,
		"the analytical rows invert the paper's OLTP balance: data stalls (LLC-D, and Rem-D on two sockets) dwarf the instruction side that dominates point transactions",
		"full scans read every partition, so even partitioned placement ships remote lines once the second socket holds half the data")
	return f
}
