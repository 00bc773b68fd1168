package workload_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

var updateFrontEndCharges = flag.Bool("update-frontend-charges", false,
	"rewrite testdata/frontend_charges.txt from this run (only on a deliberate re-baseline)")

const frontEndChargesFile = "testdata/frontend_charges.txt"

// chargeWorkloads are the request mixes of the charge fence, at the smallest
// sizes that populate in milliseconds.
var chargeWorkloads = []struct {
	name  string
	cores int // simulated cores (one partition each on the partitioned archetypes)
	n     int // generated calls per cell
	make  func() workload.Workload
}{
	{"micro-ro1", 2, 300, func() workload.Workload {
		return workload.NewMicro(workload.MicroConfig{Rows: 2048, RowsPerTx: 1})
	}},
	// String keys route to one partition only, so this cell runs on one core.
	{"micro-rw10-string", 1, 300, func() workload.Workload {
		return workload.NewMicro(workload.MicroConfig{Rows: 512, RowsPerTx: 10, ReadWrite: true, StringKeys: true})
	}},
	{"tpcb", 2, 300, func() workload.Workload {
		return workload.NewTPCB(workload.TPCBConfig{Branches: 2, AccountsPerBranch: 500})
	}},
	{"tpcc", 2, 200, func() workload.Workload {
		return workload.NewTPCC(chargeTPCC)
	}},
	{"olap", 2, 60, func() workload.Workload {
		return workload.NewOLAP(workload.OLAPConfig{Rows: 3000})
	}},
	{"hybrid20", 2, 200, func() workload.Workload {
		return workload.NewHybrid(workload.HybridConfig{TPCC: chargeTPCC, OLAPPercent: 20})
	}},
}

var chargeTPCC = workload.TPCCConfig{Warehouses: 2, Items: 150, CustomersPerDistrict: 30, OrdersPerDistrict: 30}

// TestFrontEndCharges is the fast fence for the request path around the
// storage engine: for every archetype × workload cell it runs a few hundred
// seeded requests through Engine.Invoke and compares the instructions and
// instruction-stall cycles of every core.Module, the committed transactions
// and the aborts against testdata/frontend_charges.txt. The modules pin the
// network, parser, optimizer, dispatch, plan-executor and compiled-procedure
// charges per archetype, so a refactor of Engine.invoke or Tx.chargeOp that
// moves, drops or reorders a charge fails here in about a second instead of
// in the goldens. Never regenerate the file outside a deliberate re-baseline.
func TestFrontEndCharges(t *testing.T) {
	names := make([]string, len(chargeWorkloads))
	for i, wl := range chargeWorkloads {
		names[i] = wl.name
	}
	runLineFence(t, frontEndChargesFile,
		"# system/workload tx aborts module=instructions/istall-cycles... (generated; see TestFrontEndCharges)",
		*updateFrontEndCharges, names, func(t *testing.T, kind systems.Kind, i int) string {
			wl := chargeWorkloads[i]
			return runChargeCell(t, kind, wl.cores, wl.make(), wl.n)
		})
}

// runChargeCell populates one engine untraced, runs n generated requests on
// it and renders the cell's line.
func runChargeCell(t *testing.T, kind systems.Kind, cores int, w workload.Workload, n int) string {
	t.Helper()
	e := populateUntraced(kind, systems.Options{Cores: cores}, w)
	e.Machine().Arena.EnableTracing(true)

	parts := e.Partitions()
	rng := workload.NewRand(20)
	for i := 0; i < n; i++ {
		c := i % cores
		e.SetCore(c)
		part := 0
		if parts > 1 {
			part = c
		}
		call := w.Gen(rng, part, parts)
		if err := e.Invoke(part, call.Proc, call.Args...); err != nil {
			t.Fatalf("call %d (%s): %v", i, call.Proc, err)
		}
	}

	var tx uint64
	var mods [core.NumModules]core.ModuleStats
	for _, cpu := range e.Machine().CPUs {
		tx += cpu.TxCount
		for m := range mods {
			s := cpu.ModuleStats(core.Module(m))
			mods[m].Instructions += s.Instructions
			mods[m].IStallCycles += s.IStallCycles
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tx=%d aborts=%d", tx, e.Aborts.Load())
	for m, s := range mods {
		fmt.Fprintf(&b, " %s=%d/%d", core.Module(m), s.Instructions, s.IStallCycles)
	}
	return b.String()
}
