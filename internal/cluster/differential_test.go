package cluster_test

// The cluster-level differential battery: replay every workload archetype
// through a real multi-node deployment — N oltpd servers on loopback TCP,
// each owning a slice of the global partition space — routed by a cluster
// client, with a configurable fraction of transactions executed as
// multi-partition two-phase commits. The final row-level state of the whole
// cluster (each row read from its owning node) must agree with the same
// reference executor the single-engine suite uses: a committed 2PC applies
// to the reference as one staged transaction, which is exactly the engine's
// prepare-time write-staging semantics.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/refdb"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/testbed"
	"oltpsim/internal/workload"
)

// startCluster boots one oltpd server per node of the map on loopback TCP
// and dials a routing client against them. At cleanup the nodes are stopped
// and must each have answered every request they admitted — fault-injected
// coordinators included.
func startCluster(t *testing.T, m *cluster.ShardMap, spec workload.Spec, twopc time.Duration) ([]*server.Server, *cluster.Conn) {
	t.Helper()
	bed, err := testbed.Start(server.Config{System: systems.VoltDB, Spec: spec, Cluster: m, TwoPCTimeout: twopc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := bed.Stop(); err != nil {
			t.Error(err)
		}
	})
	conn, err := cluster.Dial(cluster.Config{Addrs: bed.Addrs, Map: m, Spec: spec})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(conn.Close)
	return bed.Nodes, conn
}

func analytic(proc string) bool { return strings.HasPrefix(proc, "olap_") }

// copyCall deep-copies a generated call (Workload.Gen recycles its argument
// buffer, and multi-partition pairs need two live calls at once).
func copyCall(c workload.Call) workload.Call {
	args := make([]catalog.Value, len(c.Args))
	copy(args, c.Args)
	return workload.Call{Proc: c.Proc, Args: args}
}

// captureOLAP snapshots a node's last analytical result under the engine's
// execution locks (the shard worker wrote it under the same locks, so the
// read is ordered even while the server keeps running).
func captureOLAP(srv *server.Server) workload.OLAPResult {
	var last workload.OLAPResult
	srv.Engine().Observe(func(*core.Machine) {
		switch w := srv.Workload().(type) {
		case *workload.OLAP:
			last = w.Last
		case *workload.Hybrid:
			last = w.Last
		}
		g := make(map[int64]int64, len(last.Groups))
		for k, v := range last.Groups {
			g[k] = v
		}
		last.Groups = g
	})
	return last
}

// mergeOLAP combines per-node scatter results into the cluster-wide answer:
// counts and sums add, min/max fold over nodes that matched rows, group
// accumulators add keywise.
func mergeOLAP(rs []workload.OLAPResult) workload.OLAPResult {
	out := workload.OLAPResult{Proc: rs[0].Proc, Groups: map[int64]int64{}}
	grouped := strings.HasSuffix(out.Proc, "group") || strings.HasSuffix(out.Proc, "by_district")
	first := true
	for _, r := range rs {
		out.Rows += r.Rows
		out.Count += r.Count
		out.Sum += r.Sum
		if r.Rows > 0 {
			if first || r.Min < out.Min {
				out.Min = r.Min
			}
			if first || r.Max > out.Max {
				out.Max = r.Max
			}
			first = false
		}
		if grouped {
			for g, s := range r.Groups {
				out.Groups[g] += s
			}
		}
	}
	return out
}

// diffCell is one cell of the battery: an archetype on a topology at one
// multi-partition rate and seed.
type diffCell struct {
	kind  string
	spec  workload.Spec
	calls int
}

var diffCells = []diffCell{
	{"micro", workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 2, ReadWrite: true}, 160},
	{"tpcb", workload.Spec{Kind: "tpcb", Branches: 6, AccountsPerBranch: 300}, 160},
	{"tpcc", workload.Spec{Kind: "tpcc", Warehouses: 4, Items: 100, CustomersPerDistrict: 20, OrdersPerDistrict: 20}, 80},
	{"olap", workload.Spec{Kind: "olap", Rows: 2000, Groups: 8}, 40},
	{"hybrid", workload.Spec{Kind: "hybrid", Warehouses: 4, OLAPPercent: 30, Items: 80, CustomersPerDistrict: 15, OrdersPerDistrict: 15}, 60},
}

func TestClusterDifferential(t *testing.T) {
	const parts = 4
	seeds := []uint64{101, 202, 303}
	mpRates := []int{0, 5, 20}
	for _, cell := range diffCells {
		for si, seed := range seeds {
			for mi, mp := range mpRates {
				nodes := 2 + si%3 // 2, 3, 4 nodes across the seed axis
				policy := "range"
				if mi%2 == 1 {
					policy = "hash"
				}
				m, err := cluster.NewMap(policy, nodes, parts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/mp%d/seed%d", cell.kind, m, mp, seed)
				t.Run(name, func(t *testing.T) {
					runDiffCell(t, cell, m, seed, mp)
				})
			}
		}
	}
}

func runDiffCell(t *testing.T, cell diffCell, m *cluster.ShardMap, seed uint64, mpPct int) {
	srvs, conn := startCluster(t, m, cell.spec, 0)
	gen := cell.spec.New(m.Parts)
	db := refdb.New(srvs[0].Engine())
	switch w := gen.(type) {
	case *workload.Micro:
		refdb.PopulateMicro(db, w)
	case *workload.TPCB:
		refdb.PopulateTPCB(db, w)
	case *workload.TPCC:
		refdb.PopulateTPCC(db, w)
	case *workload.OLAP:
		refdb.PopulateOLAP(db, w)
	case *workload.Hybrid:
		refdb.PopulateTPCC(db, w.TPCC())
	}

	// applyCall mirrors one committed call onto the reference.
	applyCall := func(i int, c workload.Call) {
		t.Helper()
		var err error
		switch w := gen.(type) {
		case *workload.Micro:
			err = refdb.ApplyMicro(db, w, c)
		case *workload.TPCB:
			err = refdb.ApplyTPCB(db, c)
		case *workload.TPCC, *workload.Hybrid:
			err = refdb.ApplyTPCC(db, c)
		default:
			err = fmt.Errorf("unexpected write call %q on %T", c.Proc, w)
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// checkAnalytic scatters an analytical call to every node and compares
	// the merged captures against a reference fold.
	checkAnalytic := func(i int, c workload.Call) {
		t.Helper()
		if err := conn.ExecAll(c.Proc, c.Args); err != nil {
			t.Fatalf("call %d (%s): %v", i, c.Proc, err)
		}
		rs := make([]workload.OLAPResult, len(srvs))
		for n, srv := range srvs {
			rs[n] = captureOLAP(srv)
		}
		merged := mergeOLAP(rs)
		var err error
		if cell.kind == "hybrid" {
			err = refdb.CheckHybrid(db, merged, c)
		} else {
			err = refdb.CheckOLAP(db, merged, c)
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	rng := workload.NewRand(seed)
	coin := workload.NewRand(seed ^ 0x6f1e57)
	committedMP := 0
	for i := 0; i < cell.calls; i++ {
		part := i % m.Parts
		c1 := copyCall(gen.Gen(rng, part, m.Parts))
		if analytic(c1.Proc) {
			checkAnalytic(i, c1)
			continue
		}
		if mpPct > 0 && coin.Intn(100) < mpPct {
			pp := (part + 1 + coin.Intn(m.Parts-1)) % m.Parts
			c2 := copyCall(gen.Gen(rng, pp, m.Parts))
			if analytic(c2.Proc) {
				// The partner drew an analytical call: run both separately.
				if err := conn.Exec(part, c1.Proc, c1.Args); err != nil {
					t.Fatalf("call %d (%s): %v", i, c1.Proc, err)
				}
				applyCall(i, c1)
				checkAnalytic(i, c2)
				continue
			}
			err := conn.ExecMulti([]cluster.Branch{
				{Part: part, Proc: c1.Proc, Args: c1.Args},
				{Part: pp, Proc: c2.Proc, Args: c2.Args},
			})
			if errors.Is(err, cluster.ErrAborted) {
				continue // cleanly aborted everywhere: the reference skips it
			}
			if err != nil {
				t.Fatalf("call %d: ExecMulti: %v", i, err)
			}
			// A committed 2PC stages both branches against the pre-prepare
			// state and installs at commit: one staged reference transaction.
			db.Begin()
			applyCall(i, c1)
			applyCall(i, c2)
			db.Commit()
			committedMP++
			continue
		}
		if err := conn.Exec(part, c1.Proc, c1.Args); err != nil {
			t.Fatalf("call %d (%s): %v", i, c1.Proc, err)
		}
		applyCall(i, c1)
	}
	if mpPct >= 20 && cell.kind != "olap" && committedMP == 0 {
		t.Fatalf("no multi-partition transaction committed at %d%% rate", mpPct)
	}

	// Quiesce before touching engine state directly: Shutdown joins every
	// worker goroutine, so the comparison reads are ordered after all writes.
	conn.Close()
	for _, srv := range srvs {
		srv.Shutdown()
	}
	compareCluster(t, m, srvs, db)
}

// compareCluster asserts cluster-wide row-level agreement: every reference
// row must read back identically from its owning node (every node for
// replicated tables), and per-table cardinalities summed across nodes must
// match. Servers must be shut down first.
func compareCluster(t *testing.T, m *cluster.ShardMap, srvs []*server.Server, db *refdb.DB) {
	t.Helper()
	tables := make([]map[string]*engine.Table, len(srvs))
	for n, srv := range srvs {
		tables[n] = make(map[string]*engine.Table)
		for _, et := range srv.Engine().Tables() {
			tables[n][et.Name] = et
		}
	}
	for _, et0 := range srvs[0].Engine().Tables() {
		rt := db.Table(et0.Name)
		var total uint64
		for n := range srvs {
			total += tables[n][et0.Name].Count()
		}
		want := uint64(rt.Len())
		if et0.Replicated {
			want *= uint64(m.Parts)
		}
		if total != want {
			t.Errorf("table %s: cluster has %d rows, reference %d", et0.Name, total, want)
			continue
		}
		keyVals := make([]catalog.Value, len(et0.KeyCols))
		rt.Each(func(row []catalog.Value) {
			for i, ci := range et0.KeyCols {
				keyVals[i] = row[ci]
			}
			if et0.Replicated {
				for n := range srvs {
					compareClusterRow(t, tables[n][et0.Name], keyVals, row, n)
				}
				return
			}
			node := m.Owner(et0.PartitionOf(keyVals))
			compareClusterRow(t, tables[node][et0.Name], keyVals, row, node)
		})
	}
}

func compareClusterRow(t *testing.T, et *engine.Table, keyVals []catalog.Value, row []catalog.Value, node int) {
	t.Helper()
	erow, ok := et.LookupRow(keyVals)
	if !ok {
		t.Errorf("table %s: node %d is missing row %v", et.Name, node, keyVals)
		return
	}
	for i := range row {
		if et.Schema.Columns[i].Type == catalog.TypeLong {
			if erow[i].I != row[i].I {
				t.Errorf("table %s row %v col %d: node %d has %d, reference %d",
					et.Name, keyVals, i, node, erow[i].I, row[i].I)
			}
		} else if string(erow[i].S) != string(row[i].S) {
			t.Errorf("table %s row %v col %d: node %d has %q, reference %q",
				et.Name, keyVals, i, node, erow[i].S, row[i].S)
		}
	}
}
