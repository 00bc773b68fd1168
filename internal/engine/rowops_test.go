package engine_test

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/simmem"
	"oltpsim/internal/systems"
)

var updateRowEvents = flag.Bool("update-row-events", false,
	"rewrite testdata/row_events.txt from this run (only on a deliberate re-baseline)")

const rowEventsFile = "testdata/row_events.txt"

// rowEventRecorder sits between a serialized single-core engine's arena and
// its machine: every traced data access is folded into an FNV-64a hash
// together with core 0's retired-instruction count and current module, then
// passed on to the machine's tracer. Two engines agree on (count, hash)
// exactly when they issue the same data accesses in the same order,
// interleaved with the same instruction charges.
type rowEventRecorder struct {
	m *core.Machine
	h hash.Hash64
	n int
}

func (r *rowEventRecorder) OnData(addr simmem.Addr, size int, write bool) {
	cpu := r.m.CPUs[0]
	var b [22]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(addr-simmem.DataBase))
	binary.LittleEndian.PutUint32(b[8:], uint32(size))
	if write {
		b[12] = 1
	}
	binary.LittleEndian.PutUint64(b[13:], cpu.Instructions)
	b[21] = byte(cpu.CurrentModule())
	r.h.Write(b[:])
	r.n++
	r.m.OnData(addr, size, write)
}

// wideSchema spans three cache lines, so a single-column read or write and a
// full-row one touch different lines.
func wideSchema(name string) *catalog.Schema {
	return catalog.NewSchema(name,
		catalog.Column{Name: "key", Type: catalog.TypeLong},
		catalog.Column{Name: "a", Type: catalog.TypeLong},
		catalog.Column{Name: "pad", Type: catalog.TypeString, Width: 100},
		catalog.Column{Name: "c", Type: catalog.TypeLong},
	)
}

func wideRow(k int64) catalog.Row {
	return catalog.Row{catalog.LongVal(k), catalog.LongVal(3 * k), catalog.StringVal([]byte(fmt.Sprintf("pad-%d", k))), catalog.LongVal(-k)}
}

// rowOpPhase is one scripted step of the row-op fence: a procedure body run
// once through Invoke (want is the error it must return, nil for a commit).
type rowOpPhase struct {
	name string
	want error
	body func(tx *engine.Tx, pt, ord *engine.Table) error
}

var errRowOpAbort = errors.New("scripted abort")

// rowOpPhases exercise every Tx op over every storage kind: point reads of a
// column and of the row, single-column and full-row read-modify-writes (twice
// on one row in one transaction, too), inserts, deletes, misses, an abort
// after writes, a point scan and the analytic scan and folds.
var rowOpPhases = []rowOpPhase{
	{"get", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		for k := int64(0); k < 40; k += 3 {
			if _, err := tx.Get(pt, longKey(k), 3); err != nil {
				return err
			}
		}
		return nil
	}},
	{"getrow", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		for k := int64(1); k < 40; k += 3 {
			if _, err := tx.GetRow(pt, longKey(k)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"update", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		for k := int64(2); k < 40; k += 3 {
			if err := tx.Update(pt, longKey(k), 3, catalog.LongVal(100+k)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"updateadd", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		for k := int64(0); k < 40; k += 5 {
			if err := tx.UpdateAdd(pt, longKey(k), 1, 7); err != nil {
				return err
			}
		}
		return nil
	}},
	{"modify", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		for k := int64(50); k < 90; k += 4 {
			err := tx.Modify(pt, longKey(k), func(r catalog.Row) catalog.Row {
				r[1] = catalog.LongVal(r[1].I + 1)
				r[2] = catalog.StringVal([]byte("modified"))
				return r
			})
			if err != nil {
				return err
			}
		}
		return nil
	}},
	{"rewrite", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		if err := tx.UpdateAdd(pt, longKey(60), 1, 5); err != nil {
			return err
		}
		if err := tx.Update(pt, longKey(60), 3, catalog.LongVal(9)); err != nil {
			return err
		}
		return tx.Modify(pt, longKey(60), func(r catalog.Row) catalog.Row {
			r[3] = catalog.LongVal(r[3].I + r[1].I)
			return r
		})
	}},
	{"read-own", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		if err := tx.UpdateAdd(pt, longKey(61), 1, 5); err != nil {
			return err
		}
		_, err := tx.GetRow(pt, longKey(61))
		return err
	}},
	{"insert", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		for k := int64(1000); k < 1012; k++ {
			if err := tx.Insert(pt, wideRow(k)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"delete", nil, func(tx *engine.Tx, pt, _ *engine.Table) error {
		for k := int64(1000); k < 1012; k += 2 {
			if err := tx.Delete(pt, longKey(k)); err != nil {
				return err
			}
		}
		return tx.Delete(pt, longKey(100))
	}},
	{"get-miss", engine.ErrNotFound, func(tx *engine.Tx, pt, _ *engine.Table) error {
		_, err := tx.Get(pt, longKey(1000), 1)
		return err
	}},
	{"update-miss", engine.ErrNotFound, func(tx *engine.Tx, pt, _ *engine.Table) error {
		return tx.UpdateAdd(pt, longKey(5000), 1, 1)
	}},
	{"modify-miss", engine.ErrNotFound, func(tx *engine.Tx, pt, _ *engine.Table) error {
		return tx.Modify(pt, longKey(100), func(r catalog.Row) catalog.Row { return r })
	}},
	{"delete-miss", engine.ErrNotFound, func(tx *engine.Tx, pt, _ *engine.Table) error {
		return tx.Delete(pt, longKey(5000))
	}},
	{"abort-after-write", errRowOpAbort, func(tx *engine.Tx, pt, _ *engine.Table) error {
		if err := tx.UpdateAdd(pt, longKey(70), 1, 1000); err != nil {
			return err
		}
		if err := tx.Insert(pt, wideRow(2000)); err != nil {
			return err
		}
		return errRowOpAbort
	}},
	{"scan", nil, func(tx *engine.Tx, _, ord *engine.Table) error {
		n := 0
		err := tx.Scan(ord, longKey(30), 25, func(key []byte, row catalog.Row) bool {
			n++
			return true
		})
		if err == nil && n != 25 {
			err = fmt.Errorf("scan visited %d rows, want 25", n)
		}
		return err
	}},
	{"scan-stop", nil, func(tx *engine.Tx, _, ord *engine.Table) error {
		return tx.Scan(ord, longKey(200), 0, func(key []byte, row catalog.Row) bool { return row[0].I < 210 })
	}},
	{"analytic-scan", nil, func(tx *engine.Tx, _, ord *engine.Table) error {
		return tx.AnalyticScan(ord, nil, nil, func(key []byte, row catalog.Row) bool { return true })
	}},
	{"aggregate", nil, func(tx *engine.Tx, _, ord *engine.Table) error {
		var out [3]int64
		specs := []engine.AggSpec{{Op: engine.AggCount}, {Op: engine.AggSum, Col: 1}, {Op: engine.AggMax, Col: 3}}
		if _, err := tx.AnalyticAggregate(ord, longKey(40), longKey(260), specs, out[:]); err != nil {
			return err
		}
		_, err := tx.AnalyticAggregateGroup(ord, 1, specs[:2], func(int64, []int64) {})
		return err
	}},
}

// TestRowOpEvents is the fast fence for the engine's row seam: the Tx ops
// over heap, row-store and MVCC storage and the 2PC stage/install path.
// testdata/row_events.txt holds, per archetype and scripted phase, the number
// of traced data accesses and the FNV-64a hash of those accesses interleaved
// with instruction charges, plus the PMU snapshot after the phase; the
// two-core 2PC cells (no single tracer sees a concurrent engine's views)
// hash per-core snapshots and the touched rows instead. A refactor that moves,
// drops, adds or reorders one access or charge fails on the first phase that
// runs the changed code. Never regenerate the file outside a deliberate
// re-baseline.
func TestRowOpEvents(t *testing.T) {
	file, err := os.ReadFile(rowEventsFile)
	if err != nil && !*updateRowEvents {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(file), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	var out strings.Builder
	out.WriteString("# system/phase events fnv64a (generated; see TestRowOpEvents)\n")
	check := func(t *testing.T, name, got string) {
		t.Helper()
		fmt.Fprintf(&out, "%s %s\n", name, got)
		if got != want[name] && !*updateRowEvents {
			t.Errorf("%s diverged from %s:\n got %s\nwant %s", name, rowEventsFile, got, want[name])
		}
	}
	for _, kind := range systems.All() { // all three storage kinds and every front end
		sys := strings.ReplaceAll(kind.String(), " ", "")
		t.Run(sys, func(t *testing.T) {
			runRowOpScript(t, kind, func(phase, got string) { check(t, sys+"/"+phase, got) })
		})
	}
	for _, kind := range []systems.Kind{systems.VoltDB, systems.HyPer} {
		sys := strings.ReplaceAll(kind.String(), " ", "") + "-2pc"
		t.Run(sys, func(t *testing.T) {
			runTwoPCScript(t, kind, func(phase, got string) { check(t, sys+"/"+phase, got) })
		})
	}
	if *updateRowEvents {
		if err := os.WriteFile(rowEventsFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// loadWide creates the point table (the archetype's index) and the ordered
// table (its scannable index) and loads rows 0..n-1 into both, untraced.
func loadWide(e *engine.Engine, n int) (pt, ord *engine.Table) {
	pt = e.CreateTable(wideSchema("pt"), "key")
	ord = e.CreateOrderedTable(wideSchema("ord"), "key")
	for k := int64(0); k < int64(n); k++ {
		pt.Load(wideRow(k))
		ord.Load(wideRow(k))
	}
	return pt, ord
}

func runRowOpScript(t *testing.T, kind systems.Kind, report func(phase, got string)) {
	e := systems.New(kind, systems.Options{})
	pt, ord := loadWide(e, 400)
	m := e.Machine()
	rec := &rowEventRecorder{m: m}
	m.Arena.SetTracer(rec)
	m.Arena.EnableTracing(true)
	for i, ph := range rowOpPhases {
		name := fmt.Sprintf("p%d", i)
		e.Register(name, func(tx *engine.Tx) error { return ph.body(tx, pt, ord) })
		rec.h, rec.n = fnv.New64a(), 0
		if err := e.Invoke(0, name); !errors.Is(err, ph.want) {
			t.Fatalf("phase %s: err %v, want %v", ph.name, err, ph.want)
		}
		fmt.Fprintf(rec.h, "%+v aborts=%d", m.Snapshot(), e.Aborts.Load())
		report(ph.name, fmt.Sprintf("%d %016x", rec.n, rec.h.Sum64()))
	}
	h := fnv.New64a()
	for _, k := range []int64{2, 60, 61, 70, 100, 1001, 1002, 2000} {
		row, ok := pt.LookupRow(longKey(k))
		fmt.Fprintf(h, "%d:%v:%v;", k, ok, row)
	}
	fmt.Fprintf(h, "%+v", m.Snapshot())
	report("lookup", fmt.Sprintf("%016x", h.Sum64()))
}

// runTwoPCScript drives prepared branches on partition 0 of a two-core
// concurrent engine while partition 1 commits ordinary transactions.
func runTwoPCScript(t *testing.T, kind systems.Kind, report func(phase, got string)) {
	e := systems.New(kind, systems.Options{Cores: 2})
	pt, ord := loadWide(e, 400)
	e.Machine().Arena.EnableTracing(true)
	if err := e.EnterConcurrent(); err != nil {
		t.Fatal(err)
	}
	e.Register("branch", func(tx *engine.Tx) error {
		base := tx.ArgI(0)
		if _, err := tx.GetRow(pt, longKey(base)); err != nil {
			return err
		}
		if err := tx.Update(pt, longKey(base+2), 3, catalog.LongVal(base)); err != nil {
			return err
		}
		if err := tx.UpdateAdd(pt, longKey(base+4), 1, 11); err != nil {
			return err
		}
		if err := tx.Modify(pt, longKey(base+6), func(r catalog.Row) catalog.Row {
			r[2] = catalog.StringVal([]byte("staged"))
			r[3] = catalog.LongVal(r[3].I * 2)
			return r
		}); err != nil {
			return err
		}
		if err := tx.UpdateAdd(pt, longKey(base+6), 1, 1); err != nil {
			return err
		}
		if err := tx.Insert(pt, wideRow(base+1000)); err != nil {
			return err
		}
		return tx.Delete(pt, longKey(base+tx.ArgI(1)))
	})
	e.Register("local", func(tx *engine.Tx) error {
		k := tx.ArgI(0)
		if err := tx.UpdateAdd(pt, longKey(k), 1, 1); err != nil {
			return err
		}
		_, err := tx.Get(ord, longKey(k), 3)
		return err
	})
	s := e.NewSession()
	args := func(vs ...int64) []catalog.Value {
		out := make([]catalog.Value, len(vs))
		for i, v := range vs {
			out[i] = catalog.LongVal(v)
		}
		return out
	}
	steps := []struct {
		name string
		run  func() error
		fail bool
	}{
		{"prepare-commit", func() error {
			if err := s.Prepare(0, 0, 1, "branch", args(10, 8)); err != nil {
				return err
			}
			return s.Resolve(0, 0, 1, true)
		}, false},
		{"prepare-abort", func() error {
			if err := s.Prepare(0, 0, 2, "branch", args(40, 8)); err != nil {
				return err
			}
			return s.Resolve(0, 0, 2, false)
		}, false},
		{"vote-no", func() error { return s.Prepare(0, 0, 3, "branch", args(80, 5000)) }, true},
		{"local", func() error { return s.Invoke(1, 1, "local", catalog.LongVal(21)) }, false},
		{"prepare-commit-2", func() error {
			if err := s.Prepare(0, 0, 4, "branch", args(120, 8)); err != nil {
				return err
			}
			return s.Resolve(0, 0, 4, true)
		}, false},
	}
	for _, st := range steps {
		if err := st.run(); (err != nil) != st.fail {
			t.Fatalf("step %s: err %v", st.name, err)
		}
		h := fnv.New64a()
		e.Observe(func(m *core.Machine) {
			for c := range m.CPUs {
				fmt.Fprintf(h, "%d %+v;", c, m.SnapshotCore(c))
			}
		})
		for _, k := range []int64{10, 12, 14, 16, 18, 1010, 40, 42, 46, 1040, 80, 86, 1080, 120, 126, 128, 1120, 21} {
			row, ok := pt.LookupRow(longKey(k))
			fmt.Fprintf(h, "%d:%v:%v;", k, ok, row)
		}
		fmt.Fprintf(h, "aborts=%d", e.Aborts.Load())
		report(st.name, fmt.Sprintf("%016x", h.Sum64()))
	}
}
