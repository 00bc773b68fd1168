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
