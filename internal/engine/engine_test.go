package engine_test

import (
	"errors"
	"strings"
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/systems"
)

func microSchema() *catalog.Schema {
	return catalog.NewSchema("micro",
		catalog.Column{Name: "key", Type: catalog.TypeLong},
		catalog.Column{Name: "val", Type: catalog.TypeLong},
	)
}

// buildMicro loads n rows into a fresh micro table on e (untraced), then
// enables tracing for measurement.
func buildMicro(e *engine.Engine, n int) *engine.Table {
	t := e.CreateTable(microSchema(), "key")
	for i := 0; i < n; i++ {
		t.Load(catalog.Row{catalog.LongVal(int64(i)), catalog.LongVal(int64(i * 7))})
	}
	e.Machine().Arena.EnableTracing(true)
	return t
}

func longKey(k int64) []catalog.Value { return []catalog.Value{catalog.LongVal(k)} }

func allSystems(t *testing.T) map[string]*engine.Engine {
	t.Helper()
	out := make(map[string]*engine.Engine)
	for _, k := range systems.All() {
		out[k.String()] = systems.New(k, systems.Options{})
	}
	return out
}

func TestInvokeGetOnAllSystems(t *testing.T) {
	for name, e := range allSystems(t) {
		t.Run(name, func(t *testing.T) {
			tbl := buildMicro(e, 1000)
			var got int64
			e.Register("read1", func(tx *engine.Tx) error {
				v, err := tx.Get(tbl, longKey(tx.ArgI(0)), 1)
				if err != nil {
					return err
				}
				got = v.I
				return nil
			})
			if err := e.Invoke(0, "read1", catalog.LongVal(123)); err != nil {
				t.Fatal(err)
			}
			if got != 123*7 {
				t.Errorf("read = %d, want %d", got, 123*7)
			}
			cpu := e.Machine().CPUs[0]
			if cpu.TxCount != 1 {
				t.Errorf("tx count = %d", cpu.TxCount)
			}
			if cpu.Instructions == 0 {
				t.Error("no instructions retired")
			}
			snap := e.Machine().Snapshot()
			if snap.Misses.L1DAcc == 0 {
				t.Error("no data accesses recorded")
			}
		})
	}
}

func TestInvokeUpdateVisibleToLaterTx(t *testing.T) {
	for name, e := range allSystems(t) {
		t.Run(name, func(t *testing.T) {
			tbl := buildMicro(e, 100)
			e.Register("upd", func(tx *engine.Tx) error {
				return tx.Update(tbl, longKey(tx.ArgI(0)), 1, catalog.LongVal(tx.ArgI(1)))
			})
			var got int64
			e.Register("read1", func(tx *engine.Tx) error {
				v, err := tx.Get(tbl, longKey(tx.ArgI(0)), 1)
				got = v.I
				return err
			})
			if err := e.Invoke(0, "upd", catalog.LongVal(42), catalog.LongVal(-5)); err != nil {
				t.Fatal(err)
			}
			if err := e.Invoke(0, "read1", catalog.LongVal(42)); err != nil {
				t.Fatal(err)
			}
			if got != -5 {
				t.Errorf("value after update = %d, want -5", got)
			}
		})
	}
}

func TestUpdateAddAccumulates(t *testing.T) {
	for name, e := range allSystems(t) {
		t.Run(name, func(t *testing.T) {
			tbl := buildMicro(e, 10)
			e.Register("add", func(tx *engine.Tx) error {
				return tx.UpdateAdd(tbl, longKey(3), 1, 10)
			})
			for i := 0; i < 5; i++ {
				if err := e.Invoke(0, "add"); err != nil {
					t.Fatal(err)
				}
			}
			var got int64
			e.Register("read1", func(tx *engine.Tx) error {
				v, err := tx.Get(tbl, longKey(3), 1)
				got = v.I
				return err
			})
			if err := e.Invoke(0, "read1"); err != nil {
				t.Fatal(err)
			}
			if got != 3*7+50 {
				t.Errorf("accumulated = %d, want %d", got, 3*7+50)
			}
		})
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	for name, e := range allSystems(t) {
		t.Run(name, func(t *testing.T) {
			tbl := buildMicro(e, 10)
			e.Register("ins", func(tx *engine.Tx) error {
				return tx.Insert(tbl, catalog.Row{catalog.LongVal(1000), catalog.LongVal(99)})
			})
			e.Register("del", func(tx *engine.Tx) error {
				return tx.Delete(tbl, longKey(1000))
			})
			var got int64
			var readErr error
			e.Register("read1", func(tx *engine.Tx) error {
				v, err := tx.Get(tbl, longKey(1000), 1)
				got, readErr = v.I, err
				return nil
			})
			if err := e.Invoke(0, "ins"); err != nil {
				t.Fatal(err)
			}
			if err := e.Invoke(0, "read1"); err != nil {
				t.Fatal(err)
			}
			if readErr != nil || got != 99 {
				t.Fatalf("read inserted row = %d, err %v", got, readErr)
			}
			if err := e.Invoke(0, "del"); err != nil {
				t.Fatal(err)
			}
			if err := e.Invoke(0, "read1"); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(readErr, engine.ErrNotFound) {
				t.Errorf("read after delete err = %v, want ErrNotFound", readErr)
			}
		})
	}
}

func TestGetMissingKey(t *testing.T) {
	e := systems.New(systems.VoltDB, systems.Options{})
	tbl := buildMicro(e, 10)
	e.Register("read1", func(tx *engine.Tx) error {
		_, err := tx.Get(tbl, longKey(tx.ArgI(0)), 1)
		return err
	})
	err := e.Invoke(0, "read1", catalog.LongVal(5555))
	if !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if e.Aborts.Load() != 1 {
		t.Errorf("aborts = %d", e.Aborts.Load())
	}
	if e.Machine().CPUs[0].TxCount != 0 {
		t.Error("aborted txn counted as committed")
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	e := systems.New(systems.ShoreMT, systems.Options{})
	tbl := buildMicro(e, 10)
	boom := errors.New("boom")
	e.Register("bad", func(tx *engine.Tx) error {
		if _, err := tx.Get(tbl, longKey(1), 1); err != nil {
			return err
		}
		return boom
	})
	if err := e.Invoke(0, "bad"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A second transaction must be able to X-lock the same row.
	e.Register("upd", func(tx *engine.Tx) error {
		return tx.Update(tbl, longKey(1), 1, catalog.LongVal(0))
	})
	if err := e.Invoke(0, "upd"); err != nil {
		t.Errorf("update after aborted reader: %v", err)
	}
}

func TestScanOrderedSystems(t *testing.T) {
	for _, kind := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.HyPer} {
		e := systems.New(kind, systems.Options{})
		t.Run(kind.String(), func(t *testing.T) {
			tbl := buildMicro(e, 500)
			var keys []int64
			e.Register("scan", func(tx *engine.Tx) error {
				return tx.Scan(tbl, longKey(100), 5, func(key []byte, row catalog.Row) bool {
					keys = append(keys, row[0].I)
					return true
				})
			})
			if err := e.Invoke(0, "scan"); err != nil {
				t.Fatal(err)
			}
			want := []int64{100, 101, 102, 103, 104}
			if len(keys) != len(want) {
				t.Fatalf("scanned %v", keys)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("scanned %v, want %v", keys, want)
				}
			}
		})
	}
}

func TestMVCCSnapshotIsolationAcrossInvokes(t *testing.T) {
	e := systems.New(systems.DBMSM, systems.Options{})
	tbl := buildMicro(e, 10)
	if e.MVCC() == nil {
		t.Fatal("DBMS M should use MVCC")
	}
	e.Register("upd", func(tx *engine.Tx) error {
		return tx.Update(tbl, longKey(1), 1, catalog.LongVal(tx.ArgI(0)))
	})
	for i := int64(1); i <= 3; i++ {
		if err := e.Invoke(0, "upd", catalog.LongVal(i*100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.MVCC().Commits; got != 3 {
		t.Errorf("mvcc commits = %d", got)
	}
	var got int64
	e.Register("read1", func(tx *engine.Tx) error {
		v, err := tx.Get(tbl, longKey(1), 1)
		got = v.I
		return err
	})
	if err := e.Invoke(0, "read1"); err != nil {
		t.Fatal(err)
	}
	if got != 300 {
		t.Errorf("latest version = %d, want 300", got)
	}
}

func TestPartitionedRoutingEnforced(t *testing.T) {
	e := systems.New(systems.VoltDB, systems.Options{Cores: 2, Partitions: 2})
	tbl := e.CreateTable(microSchema(), "key")
	for i := 0; i < 100; i++ {
		tbl.Load(catalog.Row{catalog.LongVal(int64(i)), catalog.LongVal(0)})
	}
	e.Machine().Arena.EnableTracing(true)
	e.Register("read1", func(tx *engine.Tx) error {
		_, err := tx.Get(tbl, longKey(tx.ArgI(0)), 1)
		return err
	})
	// Key 4 lives in partition 0: correct routing works.
	if err := e.Invoke(0, "read1", catalog.LongVal(4)); err != nil {
		t.Fatal(err)
	}
	// Key 5 lives in partition 1: invoking on partition 0 trips the
	// single-site enforcement panic in shardFor, which Invoke converts to an
	// abort + error (a serving path must answer a mis-routed request with an
	// error response, not crash the process).
	err := e.Invoke(0, "read1", catalog.LongVal(5))
	if err == nil || !strings.Contains(err.Error(), "touched key of partition 1") {
		t.Fatalf("cross-partition access: err = %v, want partition-violation error", err)
	}
	// The engine survives and keeps serving correctly-routed requests.
	if err := e.Invoke(1, "read1", catalog.LongVal(5)); err != nil {
		t.Fatalf("engine unusable after routing violation: %v", err)
	}
}

// TestLoadHomesShardDataOnItsSocket: under partitioned placement on two
// sockets every byte a Load allocates is homed on the socket of the core that
// drives the row's partition (the claim is fixed per shard when the table is
// created); without it data stays on the interleaved default.
func TestLoadHomesShardDataOnItsSocket(t *testing.T) {
	e := systems.New(systems.VoltDB, systems.Options{Cores: 4, Sockets: 2, Placement: core.PlacePartitioned})
	tbl := e.CreateTable(microSchema(), "key")
	mach := e.Machine()
	claimed := 0
	for i := 0; i < 4000; i++ {
		before := mach.Arena.DataTop()
		tbl.Load(catalog.Row{catalog.LongVal(int64(i)), catalog.LongVal(0)})
		p := i % 4
		for a := before; a < mach.Arena.DataTop(); a += core.LineBytes {
			claimed++
			if got, want := mach.Hier.HomeOf(a), mach.Hier.SocketOf(p); got != want {
				t.Fatalf("row %d (partition %d): line %#x homed on socket %d, want %d", i, p, uint64(a), got, want)
			}
		}
	}
	if claimed == 0 {
		t.Fatal("4000 loads allocated nothing")
	}
	for p := 0; p < 4; p++ {
		if count, height := tbl.IndexShape(p); count != 1000 || height < 3 {
			t.Errorf("shard %d: %d entries at height %d, want 1000 at height >= 3", p, count, height)
		}
	}
}

func TestHashIndexRejectsScan(t *testing.T) {
	e := systems.New(systems.DBMSM, systems.Options{}) // hash index default
	tbl := buildMicro(e, 100)
	e.Register("scan", func(tx *engine.Tx) error {
		return tx.Scan(tbl, longKey(0), 5, func([]byte, catalog.Row) bool { return true })
	})
	if err := e.Invoke(0, "scan"); err == nil {
		t.Error("scan on hash index should fail")
	}
}

func TestDBMSMIndexOverride(t *testing.T) {
	e := systems.New(systems.DBMSM, systems.Options{
		Index: engine.IndexCCTree512, HasIndexOverride: true,
	})
	tbl := buildMicro(e, 300)
	var n int
	e.Register("scan", func(tx *engine.Tx) error {
		return tx.Scan(tbl, longKey(0), 10, func([]byte, catalog.Row) bool { n++; return true })
	})
	if err := e.Invoke(0, "scan"); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("scanned %d rows", n)
	}
}

func TestModuleAttributionCoversFrontends(t *testing.T) {
	// DBMS D must spend parser/optimizer instructions; HyPer must not.
	d := systems.New(systems.DBMSD, systems.Options{})
	tblD := buildMicro(d, 100)
	d.Register("read1", func(tx *engine.Tx) error {
		_, err := tx.Get(tblD, longKey(1), 1)
		return err
	})
	if err := d.Invoke(0, "read1"); err != nil {
		t.Fatal(err)
	}
	snapD := d.Machine().Snapshot()
	if snapD.Modules[2].Instructions == 0 { // ModParser
		t.Error("DBMS D retired no parser instructions")
	}

	h := systems.New(systems.HyPer, systems.Options{})
	tblH := buildMicro(h, 100)
	h.Register("read1", func(tx *engine.Tx) error {
		_, err := tx.Get(tblH, longKey(1), 1)
		return err
	})
	if err := h.Invoke(0, "read1"); err != nil {
		t.Fatal(err)
	}
	snapH := h.Machine().Snapshot()
	if snapH.Modules[2].Instructions != 0 {
		t.Error("HyPer retired parser instructions")
	}
	if snapH.Modules[6].Instructions == 0 { // ModCompiledProc
		t.Error("HyPer retired no compiled-proc instructions")
	}
}

// TestStatementParsedOncePerTransaction pins DBMS D's per-transaction
// statement set: each (table, op kind) pays the full parse and optimize
// charge on its first execution in a transaction and the one-token re-bind
// afterwards, and the set starts empty in the next transaction.
func TestStatementParsedOncePerTransaction(t *testing.T) {
	e := systems.New(systems.DBMSD, systems.Options{})
	a := buildMicro(e, 100)
	b := e.CreateTable(catalog.NewSchema("pair",
		catalog.Column{Name: "k1", Type: catalog.TypeLong},
		catalog.Column{Name: "k2", Type: catalog.TypeLong},
		catalog.Column{Name: "v", Type: catalog.TypeLong}), "k1", "k2")
	b.Load(catalog.Row{catalog.LongVal(1), catalog.LongVal(2), catalog.LongVal(3)})
	e.Register("mix", func(tx *engine.Tx) error {
		for _, k := range []int64{1, 2, 3} { // one parse of a's SELECT, two re-binds
			if _, err := tx.Get(a, longKey(k), 1); err != nil {
				return err
			}
		}
		if err := tx.Update(a, longKey(1), 1, catalog.LongVal(9)); err != nil { // same table, another kind
			return err
		}
		_, err := tx.Get(b, []catalog.Value{catalog.LongVal(1), catalog.LongVal(2)}, 2) // same kind, another table
		return err
	})
	c := e.Config().Costs
	// Tokens and predicates: a's SELECT 9/1 and UPDATE 11/2, b's SELECT 13/2.
	wantParser := uint64(c.ParsePerToken * (9 + 1 + 1 + 11 + 13))
	wantOptimizer := uint64(3*c.OptimizeBase + c.OptimizePerPred*(1+2+2))
	cpu := e.Machine().CPUs[0]
	for round := 1; round <= 2; round++ {
		if err := e.Invoke(0, "mix"); err != nil {
			t.Fatal(err)
		}
		if got := cpu.ModuleStats(core.ModParser).Instructions; got != uint64(round)*wantParser {
			t.Errorf("after %d transactions: parser retired %d instructions, want %d", round, got, uint64(round)*wantParser)
		}
		if got := cpu.ModuleStats(core.ModOptimizer).Instructions; got != uint64(round)*wantOptimizer {
			t.Errorf("after %d transactions: optimizer retired %d instructions, want %d", round, got, uint64(round)*wantOptimizer)
		}
	}
}

func TestInstructionFootprintOrdering(t *testing.T) {
	// Per-transaction instruction counts must follow the paper's inventory:
	// HyPer < VoltDB < Shore-MT/DBMS M < DBMS D.
	perTx := map[string]float64{}
	for name, e := range allSystems(t) {
		tbl := buildMicro(e, 1000)
		e.Register("read1", func(tx *engine.Tx) error {
			_, err := tx.Get(tbl, longKey(tx.ArgI(0)), 1)
			return err
		})
		before := e.Machine().Snapshot()
		for i := 0; i < 100; i++ {
			if err := e.Invoke(0, "read1", catalog.LongVal(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		d := e.Machine().Snapshot().Sub(before)
		perTx[name] = float64(d.Instructions) / float64(d.TxCount)
	}
	if !(perTx["HyPer"] < perTx["VoltDB"]) {
		t.Errorf("HyPer (%v) not lighter than VoltDB (%v)", perTx["HyPer"], perTx["VoltDB"])
	}
	if !(perTx["VoltDB"] < perTx["DBMS D"]) {
		t.Errorf("VoltDB (%v) not lighter than DBMS D (%v)", perTx["VoltDB"], perTx["DBMS D"])
	}
	if !(perTx["Shore-MT"] < perTx["DBMS D"]) {
		t.Errorf("Shore-MT (%v) not lighter than DBMS D (%v)", perTx["Shore-MT"], perTx["DBMS D"])
	}
	if perTx["HyPer"] > 6000 {
		t.Errorf("HyPer retires %v instructions for a 1-row read; expected a few thousand", perTx["HyPer"])
	}
}
