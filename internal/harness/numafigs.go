package harness

import (
	"fmt"

	"oltpsim/internal/core"
)

// The FigN figures extend the paper's multicore analysis (section 7) to the
// two-socket topology of its own server (Table 1): throughput, IPC and the
// stall breakdown as the worker count grows from a few cores on one socket
// to the full 2x10-core machine, with the database either partitioned across
// sockets (each partition homed with its worker) or spread uniformly. The
// paper's follow-up ("Micro-architectural Analysis of OLAP") shows the same
// stall taxonomy splitting sharply at the socket boundary; these figures are
// that experiment for OLTP.

// numaCoreCounts is the x-axis of the scaling figures: within one socket
// (2, 5, 10) and across the boundary (12, 20 — the full machine).
var numaCoreCounts = []int{2, 5, 10, 12, 20}

// numaGrid declares the placement x core-count cell grid shared by the
// FigN figures (FigN1 and FigN2 share the read-only cells).
func numaGrid(r *Runner, rw bool) cellList {
	var cl cellList
	for _, partitioned := range []bool{true, false} {
		placement := core.PlacePartitioned
		if !partitioned {
			placement = core.PlaceInterleaved
		}
		for _, cores := range numaCoreCounts {
			cl.add(r.NUMAMicroCell(cores, partitioned, rw),
				placement.String(), fmt.Sprint(cores),
				fmt.Sprint(core.IvyBridge(cores).Sockets))
		}
	}
	return cl
}

// FigN1 plots throughput scaling across the socket boundary.
func FigN1(r *Runner) *Figure {
	f := &Figure{
		ID:     "N1",
		Title:  "Multi-socket throughput scaling (micro RO 1 row, 10GB, VoltDB, 2x10-core Ivy Bridge)",
		Header: []string{"Placement", "Cores", "Sockets", "Tx/Mcycle"},
	}
	cl := numaGrid(r, false)
	f.Rows = cl.render(r, func(res *Result) []string {
		return []string{f2(res.TxPerMCycle())}
	})
	f.Notes = append(f.Notes,
		"partitioned placement keeps every DRAM fill on the worker's socket; uniform placement sends about half of them over QPI once both sockets are active")
	return f
}

// FigN2 plots IPC over the same grid.
func FigN2(r *Runner) *Figure {
	f := &Figure{
		ID:     "N2",
		Title:  "Multi-socket IPC (micro RO 1 row, 10GB, VoltDB, 2x10-core Ivy Bridge)",
		Header: []string{"Placement", "Cores", "Sockets", "IPC"},
	}
	cl := numaGrid(r, false)
	f.Rows = cl.render(r, ipcCell)
	f.Notes = append(f.Notes,
		"per-core IPC holds within a socket and dips when uniform placement crosses it (remote-DRAM fills join the stall mix)")
	return f
}

// FigN3 plots the stall breakdown — with the cross-socket components split
// out — over the read-write grid, which also exercises ownership transfers.
func FigN3(r *Runner) *Figure {
	f := &Figure{
		ID:     "N3",
		Title:  "Multi-socket stall cycles per k-instruction (micro RW 1 row, 10GB, VoltDB, 2x10-core Ivy Bridge)",
		Header: numaStallHeader("Placement", "Cores", "Sockets"),
	}
	cl := numaGrid(r, true)
	f.Rows = cl.render(r, func(res *Result) []string {
		return numaStallCells(res.StallsPerKI())
	})
	f.Notes = append(f.Notes,
		"Rem-I/Rem-D are the cross-socket share: remote-LLC forwards, remote-DRAM fills and write ownership transfers; zero on one socket by construction")
	return f
}
