package core_test

import (
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/simmem"
	"oltpsim/internal/systems"
)

// BenchmarkFetchCode is the instruction-fetch rung of the benchmark ladder
// (benchmark/ladder.go, core.fetch_code_ns) as a `go test -bench` target, so
// it can be run while working on FetchCode: code regions sized like an
// archetype's stack, driven through CPU.Exec the way the engine drives them.
// Each archetype runs serially and in concurrent mode (SetConcurrent, still
// driven from one goroutine), where every fetch walk past the L1I takes and
// drops its socket's lock once, as the serving path pays for it. One op is
// one pass over the regions; the metrics that matter are ns/line and the L1I
// miss rate the pass produces.
//
//	go test -run '^$' -bench BenchmarkFetchCode -benchtime 2000x ./internal/core
func BenchmarkFetchCode(b *testing.B) {
	for _, kind := range []systems.Kind{systems.VoltDB, systems.ShoreMT, systems.HyPer} {
		for _, mode := range []struct {
			name string
			mt   bool
		}{{"serial", false}, {"concurrent", true}} {
			b.Run(kind.String()+"/"+mode.name, func(b *testing.B) {
				m := core.NewMachine(core.IvyBridge(1))
				m.SetConcurrent(mode.mt)
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
}

var dataSink int

// BenchmarkDataAccess is the data-side rung: one 8-byte read through
// Hierarchy.DataAccess on core 0 of a coherent two-core IvyBridge, served
// from each level in turn, serially and in concurrent mode (where every
// access first checks the core's invalidation inbox). One op is one access;
// the footprint is cycled, so every access is served where its case says
// (the three miss rates show it).
//
//	go test -run '^$' -bench BenchmarkDataAccess -cpu 1 ./internal/core
func BenchmarkDataAccess(b *testing.B) {
	for _, mode := range []struct {
		name string
		mt   bool
	}{{"serial", false}, {"concurrent", true}} {
		for _, served := range []struct {
			name  string
			lines int
		}{
			{"L1Dhit", 64},       // inside the 512-line L1D
			{"L2hit", 2048},      // 32 lines per 8-way L1D set; 4 per L2 set
			{"LLCmiss", 1 << 19}, // 32 lines per 20-way LLC set
		} {
			b.Run(mode.name+"/"+served.name, func(b *testing.B) {
				h := core.NewHierarchy(core.IvyBridge(2))
				h.SetConcurrent(mode.mt)
				next := 0
				read := func() int {
					addr := simmem.DataBase + simmem.Addr(next%served.lines*core.LineBytes)
					next++
					return h.DataAccess(0, addr, 8, false)
				}
				for i := 0; i < served.lines; i++ { // directory pages, then a full cycle
					read()
				}
				before := h.Counts(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dataSink += read()
				}
				d := h.Counts(0).Sub(before)
				b.ReportMetric(float64(d.L1DMiss)/float64(d.L1DAcc), "l1d-miss-rate")
				b.ReportMetric(float64(d.L2DMiss)/float64(d.L1DAcc), "l2-miss-rate")
				b.ReportMetric(float64(d.LLCDMiss)/float64(d.L1DAcc), "llc-miss-rate")
			})
		}
	}
}
