package oltpsim

// BenchmarkFigure regenerates every deterministic figure at quick scale, one
// sub-benchmark per figure ID (BenchmarkFigure/3, BenchmarkFigure/N1, ...).
// Run with:
//
//	go test -run '^$' -bench 'BenchmarkFigure/^(2|3)$' -benchmem
//
// The committed quick-scale reproduction of every figure is
// testdata/golden_quick.md (fenced by golden_test.go); `go run ./cmd/oltpsim
// -figure all -scale default` produces the default-scale one.

import (
	"testing"

	"oltpsim/internal/harness"
	"oltpsim/internal/systems"
)

// BenchmarkFigure's sub-benchmarks share one quick-scale runner, exactly like
// `oltpsim -figure all`: cells shared between figures (e.g. the TPC-C cells
// behind Figures 10-12) are measured once, so the reported time is each
// figure's incremental cost.
func BenchmarkFigure(b *testing.B) {
	r := harness.NewRunner(harness.QuickScale())
	for _, family := range []string{"all", "numa", "htap"} {
		for _, id := range harness.FamilyIDs(family) {
			build, _ := harness.FigureBuilder(id)
			b.Run(id, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if fig := build(r); len(fig.Rows) == 0 {
						b.Fatalf("figure %s produced no rows", id)
					}
				}
			})
		}
	}
}

// BenchmarkTxMicroPerSystem measures simulated-transaction execution rate
// (wall-clock cost of the simulation itself) for each system on the 1-row
// read-only micro-benchmark, and reports the simulated IPC.
func BenchmarkTxMicroPerSystem(b *testing.B) {
	for _, sys := range systems.All() {
		b.Run(sys.String(), func(b *testing.B) {
			e := NewSystem(sys, SystemOptions{})
			w := NewMicro(MicroConfig{Rows: 1 << 16, RowsPerTx: 1})
			res := Bench(e, w, BenchOpts{Warm: 200, Measure: b.N + 1, Seed: 7})
			b.ReportMetric(res.IPC(), "sim-IPC")
			b.ReportMetric(res.InstructionsPerTx(), "sim-instr/tx")
		})
	}
}

// BenchmarkTxTPCC measures the simulation rate for the full TPC-C mix on the
// VoltDB archetype.
func BenchmarkTxTPCC(b *testing.B) {
	e := NewSystem(VoltDB, SystemOptions{})
	w := NewTPCC(TPCCConfig{Warehouses: 2, Items: 1000, CustomersPerDistrict: 100, OrdersPerDistrict: 100})
	res := Bench(e, w, BenchOpts{Warm: 100, Measure: b.N + 1, Seed: 9})
	b.ReportMetric(res.IPC(), "sim-IPC")
	b.ReportMetric(res.TxPerMCycle(), "sim-tx/Mcycle")
}
