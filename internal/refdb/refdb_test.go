package refdb_test

// The reference executor is the oracle of every differential test, so it is
// checked here against closed forms and brute-force folds that share nothing
// with it but the catalog: an oracle bug and an engine bug must not be able
// to cancel out.

import (
	"fmt"
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/refdb"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// sumCol returns the sum of column col over every committed row of rt.
func sumCol(rt *refdb.Table, col int) int64 {
	var s int64
	rt.Each(func(row []catalog.Value) { s += row[col].I })
	return s
}

// TestTPCBBalances applies generated account_update calls to a populated
// TPC-B reference and checks TPC-B's consistency conditions: the branch,
// teller and account balances each sum to the initial total plus the sum of
// the history deltas, history holds one row per call, and every branch,
// teller and account balance equals its own history deltas.
func TestTPCBBalances(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := systems.New(systems.HyPer, systems.Options{})
			w := workload.NewTPCB(workload.TPCBConfig{Branches: 3, AccountsPerBranch: 40})
			w.Setup(e)
			db := refdb.New(e)
			refdb.PopulateTPCB(db, w)
			branch, teller, account, history := db.Table("branch"), db.Table("teller"), db.Table("account"), db.Table("history")
			initial := [3]int64{sumCol(branch, 1), sumCol(teller, 2), sumCol(account, 2)}

			const n = 500
			byBranch, byTeller, byAccount := map[int64]int64{}, map[int64]int64{}, map[int64]int64{}
			var deltas int64
			rng := workload.NewRand(seed)
			for i := 0; i < n; i++ {
				c := w.Gen(rng, 0, 1)
				b, tl, a, d := c.Args[0].I, c.Args[1].I, c.Args[2].I, c.Args[3].I
				if err := refdb.ApplyTPCB(db, c); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				byBranch[b] += d
				byTeller[tl] += d
				byAccount[a] += d
				deltas += d
			}

			if got := history.Len(); got != n {
				t.Errorf("history holds %d rows after %d calls", got, n)
			}
			if got := sumCol(history, 4); got != deltas {
				t.Errorf("history deltas sum to %d, the calls' to %d", got, deltas)
			}
			for i, tc := range []struct {
				name string
				rt   *refdb.Table
				bal  int
				own  map[int64]int64
			}{{"branch", branch, 1, byBranch}, {"teller", teller, 2, byTeller}, {"account", account, 2, byAccount}} {
				if got, want := sumCol(tc.rt, tc.bal), initial[i]+deltas; got != want {
					t.Errorf("sum of %s balances = %d, want initial %d + deltas %d = %d", tc.name, got, initial[i], deltas, want)
				}
				tc.rt.Each(func(row []catalog.Value) {
					if got, want := row[tc.bal].I, tc.own[row[0].I]; got != want {
						t.Errorf("%s %d balance = %d, its own deltas sum to %d", tc.name, row[0].I, got, want)
					}
				})
			}
		})
	}
}

// TestOLAPFolds checks Fold and GroupSums on a populated OLAP table against
// a brute-force loop over Each that filters by the key's integer value,
// not by its encoded form, over several ranges: so Fold's range test must
// also agree with the key encoding's order. That order is the integers'
// only for keys >= 0 (catalog.PutKeyLong is plain big-endian, as in the
// engine's indexes), which is every key a workload generates, so the bounds
// here are non-negative.
func TestOLAPFolds(t *testing.T) {
	const rows, groups = 1000, 7
	e := systems.New(systems.HyPer, systems.Options{})
	w := workload.NewOLAP(workload.OLAPConfig{Rows: rows, Groups: groups})
	w.Setup(e)
	db := refdb.New(e)
	refdb.PopulateOLAP(db, w)
	rt := db.Table("olap")
	if rt.Len() != rows {
		t.Fatalf("olap holds %d rows, want %d", rt.Len(), rows)
	}

	key := func(id int64) *string {
		k := rt.Key([]catalog.Value{catalog.LongVal(id)})
		return &k
	}
	const unbounded = -1 << 40
	for _, r := range []struct{ lo, hi int64 }{
		{unbounded, unbounded}, {0, rows - 1}, {0, 99}, {500, 500}, {0, 0},
		{rows - 10, rows + 10}, {250, unbounded}, {unbounded, 250}, {600, 400},
	} {
		var lo, hi *string
		if r.lo != unbounded {
			lo = key(r.lo)
		}
		if r.hi != unbounded {
			hi = key(r.hi)
		}
		for _, col := range []int{0, 2} {
			var cnt, sum int64
			mn, mx := int64(1)<<62, -(int64(1) << 62)
			rt.Each(func(row []catalog.Value) {
				if id := row[0].I; (r.lo != unbounded && id < r.lo) || (r.hi != unbounded && id > r.hi) {
					return
				}
				v := row[col].I
				cnt, sum = cnt+1, sum+v
				mn, mx = min(mn, v), max(mx, v)
			})
			gc, gs, gmn, gmx := rt.Fold(col, lo, hi)
			if gc != cnt || gs != sum || (cnt > 0 && (gmn != mn || gmx != mx)) {
				t.Errorf("Fold(col %d, [%d, %d]) = count %d sum %d min %d max %d, brute force %d %d %d %d",
					col, r.lo, r.hi, gc, gs, gmn, gmx, cnt, sum, mn, mx)
			}
		}
	}

	for _, g := range []struct{ grp, val int }{{1, 2}, {1, 0}, {2, 1}} {
		want := map[int64]int64{}
		var n int64
		rt.Each(func(row []catalog.Value) {
			want[row[g.grp].I] += row[g.val].I
			n++
		})
		got, gotRows := rt.GroupSums(g.grp, g.val)
		if gotRows != n || len(got) != len(want) {
			t.Errorf("GroupSums(%d, %d): %d rows in %d groups, brute force %d in %d", g.grp, g.val, gotRows, len(got), n, len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("GroupSums(%d, %d)[%d] = %d, brute force %d", g.grp, g.val, k, got[k], v)
			}
		}
	}
	// And the closed form of the workload's own grouped query: group g sums
	// OLAPVal(i) = 3i-1 over the ids i with i mod groups = g.
	got, _ := rt.GroupSums(1, 2)
	for g := int64(0); g < groups; g++ {
		var want int64
		for i := g; i < rows; i += groups {
			want += workload.OLAPVal(i)
		}
		if got[g] != want {
			t.Errorf("group %d sums to %d, closed form %d", g, got[g], want)
		}
	}
}

// TestTPCCConsistency checks TPC-C's consistency conditions 1–4 on every
// warehouse and district of a populated reference, and again after generated
// calls: (1) W_YTD = Σ D_YTD; (2) D_NEXT_O_ID − 1 = max(O_ID) = max(NO_O_ID)
// whenever the district has new orders; (3) count(NEW_ORDER) = max(NO_O_ID) −
// min(NO_O_ID) + 1; (4) Σ O_OL_CNT = count(ORDER_LINE).
func TestTPCCConsistency(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := systems.New(systems.HyPer, systems.Options{})
			w := workload.NewTPCC(workload.TPCCConfig{Warehouses: 2, Items: 200, CustomersPerDistrict: 30, OrdersPerDistrict: 30})
			w.Setup(e)
			db := refdb.New(e)
			refdb.PopulateTPCC(db, w)
			checkTPCCConsistency(t, db, "after population")

			rng := workload.NewRand(seed)
			procs := map[string]int{}
			for i := 0; i < 2000; i++ {
				c := w.Gen(rng, 0, 1)
				if err := refdb.ApplyTPCC(db, c); err != nil {
					t.Fatalf("call %d (%s): %v", i, c.Proc, err)
				}
				procs[c.Proc]++
			}
			if procs["new_order"] == 0 || procs["payment"] == 0 || procs["delivery"] == 0 {
				t.Fatalf("the calls miss a writing procedure: %v", procs)
			}
			checkTPCCConsistency(t, db, fmt.Sprintf("after calls %v", procs))
		})
	}
}

// checkTPCCConsistency checks conditions 1–4 of TestTPCCConsistency.
func checkTPCCConsistency(t *testing.T, db *refdb.DB, when string) {
	t.Helper()
	col := func(table, name string) int {
		i := db.Table(table).Schema.ColumnIndex(name)
		if i < 0 {
			t.Fatalf("%s has no column %s", table, name)
		}
		return i
	}
	type district struct{ w, d int64 }
	type noRange struct{ n, lo, hi int64 }
	dYTD, nextO := map[int64]int64{}, map[district]int64{}
	db.Table("district").Each(func(row []catalog.Value) {
		k := district{row[col("district", "d_w_id")].I, row[col("district", "d_id")].I}
		dYTD[k.w] += row[col("district", "d_ytd")].I
		nextO[k] = row[col("district", "d_next_o_id")].I
	})
	maxO, olCnt := map[district]int64{}, map[district]int64{}
	db.Table("orders").Each(func(row []catalog.Value) {
		k := district{row[col("orders", "o_w_id")].I, row[col("orders", "o_d_id")].I}
		maxO[k] = max(maxO[k], row[col("orders", "o_id")].I)
		olCnt[k] += row[col("orders", "o_ol_cnt")].I
	})
	no := map[district]noRange{}
	db.Table("new_order").Each(func(row []catalog.Value) {
		k := district{row[col("new_order", "no_w_id")].I, row[col("new_order", "no_d_id")].I}
		o, r := row[col("new_order", "no_o_id")].I, no[k]
		if r.n == 0 {
			r.lo, r.hi = o, o
		}
		no[k] = noRange{r.n + 1, min(r.lo, o), max(r.hi, o)}
	})
	lines := map[district]int64{}
	db.Table("order_line").Each(func(row []catalog.Value) {
		lines[district{row[col("order_line", "ol_w_id")].I, row[col("order_line", "ol_d_id")].I}]++
	})

	db.Table("warehouse").Each(func(row []catalog.Value) {
		if wid, ytd := row[col("warehouse", "w_id")].I, row[col("warehouse", "w_ytd")].I; ytd != dYTD[wid] {
			t.Errorf("%s: condition 1: warehouse %d W_YTD = %d, Σ D_YTD = %d", when, wid, ytd, dYTD[wid])
		}
	})
	if len(nextO) != 2*workload.DistrictsPerWarehouse {
		t.Fatalf("%s: %d districts, want %d", when, len(nextO), 2*workload.DistrictsPerWarehouse)
	}
	for k, next := range nextO {
		if r := no[k]; r.n > 0 && (next-1 != maxO[k] || maxO[k] != r.hi) {
			t.Errorf("%s: condition 2: district %v D_NEXT_O_ID − 1 = %d, max(O_ID) = %d, max(NO_O_ID) = %d", when, k, next-1, maxO[k], r.hi)
		}
		if r := no[k]; r.n > 0 && r.n != r.hi-r.lo+1 {
			t.Errorf("%s: condition 3: district %v holds %d new orders, NO_O_ID spans %d..%d", when, k, r.n, r.lo, r.hi)
		}
		if olCnt[k] != lines[k] {
			t.Errorf("%s: condition 4: district %v Σ O_OL_CNT = %d, %d order lines", when, k, olCnt[k], lines[k])
		}
	}
}
