package core_test

import (
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/systems"
)

// BenchmarkFetchCode is the instruction-fetch rung of the benchmark ladder
// (benchmark/ladder.go, core.fetch_code_ns) as a `go test -bench` target, so
// it can be run while working on FetchCode: code regions sized like an
// archetype's stack, driven through CPU.Exec the way the engine drives them.
// One op is one pass over the regions; the metrics that matter are ns/line
// and the L1I miss rate the pass produces.
//
//	go test -run '^$' -bench BenchmarkFetchCode -benchtime 2000x ./internal/core
func BenchmarkFetchCode(b *testing.B) {
	for _, kind := range []systems.Kind{systems.VoltDB, systems.ShoreMT, systems.HyPer} {
		b.Run(kind.String(), func(b *testing.B) {
			m := core.NewMachine(core.IvyBridge(1))
			cs := core.NewCodeSpace(m.Arena)
			rs := systems.New(kind, systems.Options{}).Config().Regions
			var regions []*core.Region
			for i, r := range []engine.RegionSpec{rs.Net, rs.Dispatch, rs.PlanExec, rs.Txn, rs.Index, rs.Storage, rs.Log} {
				if r.Size > 0 {
					regions = append(regions, cs.NewRegionHot("rung", core.Module(i), r.Size, r.BPI, r.Hot))
				}
			}
			cpu := m.CPUs[0]
			pass := func() {
				for _, r := range regions {
					cpu.Exec(r, 1500)
				}
			}
			for i := 0; i < 64; i++ { // past the cold start
				pass()
			}
			before := m.Hier.Counts(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			d := m.Hier.Counts(0).Sub(before)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(d.L1IAcc), "ns/line")
			b.ReportMetric(float64(d.L1IMiss)/float64(d.L1IAcc), "l1i-miss-rate")
		})
	}
}
