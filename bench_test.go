package oltpsim

// One benchmark per paper table/figure: each regenerates the corresponding
// reproduction at quick scale and reports the headline metric the paper
// plots (IPC, stall cycles per k-instruction / per transaction) via
// b.ReportMetric. Run with:
//
//	go test -bench=. -benchmem
//
// The committed quick-scale reproduction of every figure is
// testdata/golden_quick.md (fenced by golden_test.go); `go run ./cmd/oltpsim
// -figure all -scale default` produces the default-scale one.

import (
	"sync"
	"testing"

	"oltpsim/internal/harness"
	"oltpsim/internal/systems"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *harness.Runner
)

// benchFigure regenerates one figure. Figure benchmarks share one
// quick-scale runner, exactly like `oltpsim -figure all`: cells shared
// between figures (e.g. the TPC-C cells behind Figures 10-12) are measured
// once, so the reported time is each figure's incremental cost.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	builder, ok := harness.FigureBuilder(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	benchRunnerOnce.Do(func() { benchRunner = harness.NewRunner(harness.QuickScale()) })
	for i := 0; i < b.N; i++ {
		fig := builder(benchRunner)
		if len(fig.Rows) == 0 {
			b.Fatalf("figure %s produced no rows", id)
		}
	}
}

// BenchmarkTable1 reproduces Table 1 (server parameters).
func BenchmarkTable1(b *testing.B) { benchFigure(b, "T1") }

// BenchmarkFig01 reproduces Figure 1 (IPC vs database size, read-only).
func BenchmarkFig01(b *testing.B) { benchFigure(b, "1") }

// BenchmarkFig02 reproduces Figure 2 (stalls/kI vs database size).
func BenchmarkFig02(b *testing.B) { benchFigure(b, "2") }

// BenchmarkFig03 reproduces Figure 3 (stalls per transaction at 100GB).
func BenchmarkFig03(b *testing.B) { benchFigure(b, "3") }

// BenchmarkFig04 reproduces Figure 4 (IPC vs work per transaction).
func BenchmarkFig04(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFig05 reproduces Figure 5 (stalls/kI vs work per transaction).
func BenchmarkFig05(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig06 reproduces Figure 6 (stalls/tx vs work per transaction).
func BenchmarkFig06(b *testing.B) { benchFigure(b, "6") }

// BenchmarkFig07 reproduces Figure 7 (share of time inside the OLTP engine).
func BenchmarkFig07(b *testing.B) { benchFigure(b, "7") }

// BenchmarkFig08 reproduces Figure 8 (TPC-B IPC).
func BenchmarkFig08(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig09 reproduces Figure 9 (TPC-B stalls/kI).
func BenchmarkFig09(b *testing.B) { benchFigure(b, "9") }

// BenchmarkFig10 reproduces Figure 10 (TPC-C IPC).
func BenchmarkFig10(b *testing.B) { benchFigure(b, "10") }

// BenchmarkFig11 reproduces Figure 11 (TPC-C stalls/kI).
func BenchmarkFig11(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12 reproduces Figure 12 (TPC-C stalls per transaction).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "12") }

// BenchmarkFig13 reproduces Figure 13 (index x compilation, micro RO).
func BenchmarkFig13(b *testing.B) { benchFigure(b, "13") }

// BenchmarkFig14 reproduces Figure 14 (index x compilation, TPC-C).
func BenchmarkFig14(b *testing.B) { benchFigure(b, "14") }

// BenchmarkFig15 reproduces Figure 15 (String vs Long data types).
func BenchmarkFig15(b *testing.B) { benchFigure(b, "15") }

// BenchmarkFig16 reproduces Figure 16 (multi-threaded IPC, micro).
func BenchmarkFig16(b *testing.B) { benchFigure(b, "16") }

// BenchmarkFig17 reproduces Figure 17 (multi-threaded IPC, TPC-C).
func BenchmarkFig17(b *testing.B) { benchFigure(b, "17") }

// BenchmarkFig18 reproduces Figure 18 (multi-threaded stalls/kI, micro).
func BenchmarkFig18(b *testing.B) { benchFigure(b, "18") }

// BenchmarkFig19 reproduces Figure 19 (multi-threaded stalls/kI, TPC-C).
func BenchmarkFig19(b *testing.B) { benchFigure(b, "19") }

// BenchmarkFig20to27 reproduces the appendix read-write/ablation twins
// (Figures 20-27) in one pass.
func BenchmarkFig20to27(b *testing.B) {
	benchRunnerOnce.Do(func() { benchRunner = harness.NewRunner(harness.QuickScale()) })
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"20", "21", "22", "23", "24", "25", "26", "27"} {
			builder, ok := harness.FigureBuilder(id)
			if !ok {
				b.Fatalf("unknown figure %q", id)
			}
			if fig := builder(benchRunner); len(fig.Rows) == 0 {
				b.Fatalf("figure %s produced no rows", id)
			}
		}
	}
}

// BenchmarkFigN1 reproduces Figure N1 (multi-socket throughput scaling):
// the recorded BENCH files track the wall-clock cost of the NUMA path —
// per-socket LLC probes, cross-socket coherence, home-map lookups — alongside
// the single-socket figures.
func BenchmarkFigN1(b *testing.B) { benchFigure(b, "N1") }

// BenchmarkFigH1 reproduces Figure H1 (HTAP throughput): the recorded BENCH
// files track the wall-clock cost of the analytical path — streaming scans,
// aggregate folds, the hybrid TPC-C interleave — alongside the OLTP figures.
func BenchmarkFigH1(b *testing.B) { benchFigure(b, "H1") }

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
