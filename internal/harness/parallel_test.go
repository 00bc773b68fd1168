package harness

import (
	"reflect"
	"sync"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/simmem"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// tinyScale keeps parallel-runner regression cells cheap: every paper size
// materializes ~1MB and transaction counts sit at the scaling floor. The
// figures are still real (all systems, all sizes) — only small.
func tinyScale() Scale {
	return Scale{
		Name: "tiny",
		Bytes: map[SizeLabel]int64{
			Size1MB:   1 << 20,
			Size10MB:  2 << 20,
			Size10GB:  3 << 20,
			Size100GB: 4 << 20,
		},
		TxFactor: 0.02,
		MTCores:  2,
	}
}

// TestParallelFigureMatchesSerial is the tentpole regression: one full paper
// figure built with a serial runner and with a many-worker runner must render
// byte-identically, in both output formats.
func TestParallelFigureMatchesSerial(t *testing.T) {
	serial := NewRunner(tinyScale())
	serial.Workers = 1
	parallel := NewRunner(tinyScale())
	parallel.Workers = 8

	for _, id := range []string{"2", "9"} {
		a, b := build(t, serial, id), build(t, parallel, id)
		if a.String() != b.String() {
			t.Errorf("figure %s: parallel text output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				id, a.String(), b.String())
		}
		if a.Markdown() != b.Markdown() {
			t.Errorf("figure %s: parallel markdown output differs from serial", id)
		}
	}
}

// TestBuildFiguresOrderedAndDeduped checks the concurrent multi-figure path:
// figures come back in request order, cells shared between figures (the
// micro grid behind Figures 1 and 2) are simulated exactly once, and the
// output matches building the same figures one at a time.
func TestBuildFiguresOrderedAndDeduped(t *testing.T) {
	ids := []string{"T1", "1", "2", "3"}
	r := NewRunner(tinyScale())
	r.Workers = 8
	figs, err := BuildFigures(r, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(ids) {
		t.Fatalf("got %d figures for %d ids", len(figs), len(ids))
	}
	for i, id := range ids {
		if figs[i].ID != id {
			t.Errorf("position %d: got figure %s, want %s", i, figs[i].ID, id)
		}
	}
	// Figures 1, 2 and 3 all draw on the same 5x4 micro grid (Figure 3 uses
	// the 100GB column of it), so exactly 20 distinct cells run.
	if got := r.CellsExecuted(); got != 20 {
		t.Errorf("shared cells not deduped across figures: %d cells executed, want 20", got)
	}
	// FigureCells lists those 20 once each; live figures add none.
	if got := len(r.FigureCells(append(ids, "S1", "C1", "I1"))); got != 20 {
		t.Errorf("FigureCells listed %d distinct cells, want 20", got)
	}

	one := NewRunner(tinyScale())
	one.Workers = 1
	for i, id := range ids {
		if want := build(t, one, id).String(); figs[i].String() != want {
			t.Errorf("figure %s: concurrent BuildFigures output differs from serial build", id)
		}
	}

	if _, err := BuildFigures(r, []string{"nope"}); err == nil {
		t.Error("BuildFigures accepted an unknown figure ID")
	}
}

// TestSingleFlightCellCache hammers one runner from many goroutines — far
// more than its worker slots — with only four distinct cells. Every caller
// must get the one shared *Result for its key, each cell must execute
// exactly once, and (under -race) the cache, the pool, and the engines must
// be data-race free.
func TestSingleFlightCellCache(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Workers = 4
	specs := []CellSpec{
		r.MicroCell(systems.HyPer, Size1MB, 1, false, false),
		r.MicroCell(systems.HyPer, Size1MB, 1, true, false),
		r.MicroCell(systems.VoltDB, Size1MB, 1, false, false),
		r.MicroCell(systems.DBMSM, Size1MB, 1, false, false),
	}

	const callers = 64
	got := make([]*Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			got[i] = r.Run(specs[i%len(specs)])
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if got[i] == nil {
			t.Fatalf("caller %d got nil result", i)
		}
		if want := got[i%len(specs)]; got[i] != want {
			t.Errorf("caller %d: result pointer differs from first caller of the same cell", i)
		}
	}
	if n := r.CellsExecuted(); n != int64(len(specs)) {
		t.Errorf("%d cells executed for %d distinct specs", n, len(specs))
	}
}

// TestNUMAFiguresDeterministicAcrossWorkers is the determinism property for
// the multi-socket figures: every FigN figure rendered by a serial runner and
// by an 8-worker runner must be byte-identical, in both output formats.
func TestNUMAFiguresDeterministicAcrossWorkers(t *testing.T) {
	serial := NewRunner(tinyScale())
	serial.Workers = 1
	parallel := NewRunner(tinyScale())
	parallel.Workers = 8

	for _, id := range FamilyIDs("numa") {
		a, b := build(t, serial, id), build(t, parallel, id)
		if a.String() != b.String() {
			t.Errorf("figure %s: parallel text output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				id, a.String(), b.String())
		}
		if a.Markdown() != b.Markdown() {
			t.Errorf("figure %s: parallel markdown output differs from serial", id)
		}
	}
}

// TestNUMACellPMUCountersDeterministic runs the same two-socket CellSpec on
// two independent runners and requires the raw per-core PMU windows — every
// counter, including the remote-serve and cross-socket-invalidation ones —
// to match exactly, not just the rendered strings.
func TestNUMACellPMUCountersDeterministic(t *testing.T) {
	r1 := NewRunner(tinyScale())
	r1.Workers = 1
	r8 := NewRunner(tinyScale())
	r8.Workers = 8

	for _, partitioned := range []bool{true, false} {
		a := r1.Run(r1.NUMAMicroCell(20, partitioned, true))
		b := r8.Run(r8.NUMAMicroCell(20, partitioned, true))
		if a.Rows != b.Rows || a.DataBytes != b.DataBytes {
			t.Fatalf("partitioned=%v: materialized database differs: %d/%d rows, %d/%d bytes",
				partitioned, a.Rows, b.Rows, a.DataBytes, b.DataBytes)
		}
		if !reflect.DeepEqual(a.PerCore, b.PerCore) {
			t.Errorf("partitioned=%v: per-core PMU measurements differ between runs", partitioned)
		}
	}
}

// traceHasher interposes on the arena's tracer, folding every data-access
// event (address, size, direction, order) into a running hash before
// forwarding to the machine. Two runs with identical trace-event streams
// produce identical hashes and counts.
type traceHasher struct {
	next simmem.Tracer
	hash uint64
	n    uint64
}

func (th *traceHasher) OnData(addr simmem.Addr, size int, write bool) {
	th.next.OnData(addr, size, write)
	x := uint64(addr)*0x9e3779b97f4a7c15 + uint64(size)
	if write {
		x ^= 0xa5a5a5a5a5a5a5a5
	}
	th.hash = (th.hash ^ x) * 1099511628211
	th.n++
}

// TestNUMATraceStreamDeterministic runs the same two-socket benchmark twice
// on fresh engines with a hashing tracer interposed: the complete ordered
// trace-event stream and the final PMU snapshot must be identical.
func TestNUMATraceStreamDeterministic(t *testing.T) {
	run := func() (*traceHasher, core.Snapshot) {
		e := systems.New(systems.VoltDB, systems.Options{
			Cores: 4, Sockets: 2, Placement: core.PlacePartitioned,
		})
		th := &traceHasher{next: e.Machine()}
		e.Machine().Arena.SetTracer(th)
		w := workload.NewMicro(workload.MicroConfig{Rows: 1 << 12, RowsPerTx: 1, ReadWrite: true})
		Bench(e, w, BenchOpts{Warm: 60, Measure: 120, Seed: 21})
		return th, e.Machine().Snapshot()
	}
	h1, s1 := run()
	h2, s2 := run()
	if h1.n != h2.n || h1.hash != h2.hash {
		t.Errorf("trace-event streams differ: %d events (%#x) vs %d events (%#x)",
			h1.n, h1.hash, h2.n, h2.hash)
	}
	if h1.n == 0 {
		t.Fatal("hashing tracer observed no events")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("final PMU snapshots differ:\n%+v\n%+v", s1, s2)
	}
}

// TestRunAllDedupAndOrder: duplicate specs inside one RunAll batch share one
// measurement, and results come back in spec order.
func TestRunAllDedupAndOrder(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Workers = 8
	hyper := r.MicroCell(systems.HyPer, Size1MB, 1, false, false)
	volt := r.MicroCell(systems.VoltDB, Size1MB, 1, false, false)
	res := r.RunAll([]CellSpec{hyper, volt, hyper, volt, hyper})
	if len(res) != 5 {
		t.Fatalf("got %d results for 5 specs", len(res))
	}
	if res[0] != res[2] || res[2] != res[4] || res[1] != res[3] {
		t.Error("duplicate specs in one RunAll did not share a measurement")
	}
	if res[0] == res[1] {
		t.Error("distinct specs shared a measurement")
	}
	if res[0].System != "HyPer" || res[1].System != "VoltDB" {
		t.Errorf("results out of order: got %s, %s", res[0].System, res[1].System)
	}
	if n := r.CellsExecuted(); n != 2 {
		t.Errorf("%d cells executed, want 2", n)
	}
}
