package cluster_test

// Deterministic 2PC fault injection: abort at prepare (NO vote and
// coordinator-side), abort between prepare and commit, dropped decisions
// (participant presumed-abort timeout), unawaited commit acks, and drain
// during an in-flight 2PC. Every scenario asserts atomicity by reading the
// touched rows back from the owning engines, and that the client always got
// a definitive answer.

import (
	"errors"
	"testing"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/server"
	"oltpsim/internal/workload"
)

const tpRows = 1024

var tpSpec = workload.Spec{Kind: "micro", Rows: tpRows, RowsPerTx: 1, ReadWrite: true}

// microVal reads key k's value from the owning node under the engine's
// execution locks (safe while the servers keep serving).
func microVal(t *testing.T, m *cluster.ShardMap, srvs []*server.Server, k int64) int64 {
	t.Helper()
	node := m.Owner(int(k) % m.Parts)
	eng := srvs[node].Engine()
	var tbl *engine.Table
	for _, et := range eng.Tables() {
		if et.Name == "micro" {
			tbl = et
		}
	}
	var v int64
	found := false
	eng.Observe(func(*core.Machine) {
		row, ok := tbl.LookupRow([]catalog.Value{catalog.LongVal(k)})
		if ok {
			v, found = row[1].I, true
		}
	})
	if !found {
		t.Fatalf("key %d missing on node %d", k, node)
	}
	return v
}

// pair builds the two branches of a micro_rw 2PC writing val into keys k1, k2
// (which must live on distinct partitions).
func pair(k1, k2, val int64) []cluster.Branch {
	return []cluster.Branch{
		{Part: int(k1) % 4, Proc: "micro_rw", Args: []catalog.Value{catalog.LongVal(k1), catalog.LongVal(val)}},
		{Part: int(k2) % 4, Proc: "micro_rw", Args: []catalog.Value{catalog.LongVal(k2), catalog.LongVal(val)}},
	}
}

func TestTwoPCFaultPoints(t *testing.T) {
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	srvs, conn := startCluster(t, m, tpSpec, 500*time.Millisecond)
	k1, k2 := int64(8), int64(13) // partitions 0 and 1, nodes 0 and 1
	base1, base2 := microVal(t, m, srvs, k1), microVal(t, m, srvs, k2)

	// Baseline: a clean commit installs both branches.
	if err := conn.ExecMulti(pair(k1, k2, 7001)); err != nil {
		t.Fatalf("clean commit: %v", err)
	}
	if v := microVal(t, m, srvs, k1); v != 7001 {
		t.Fatalf("k1 = %d after commit, want 7001", v)
	}
	if v := microVal(t, m, srvs, k2); v != 7001 {
		t.Fatalf("k2 = %d after commit, want 7001", v)
	}
	base1, base2 = 7001, 7001

	requireAborted := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, cluster.ErrAborted) {
			t.Fatalf("%s: err = %v, want ErrAborted (a definitive answer)", name, err)
		}
		if v := microVal(t, m, srvs, k1); v != base1 {
			t.Fatalf("%s: k1 = %d, want %d (atomicity)", name, v, base1)
		}
		if v := microVal(t, m, srvs, k2); v != base2 {
			t.Fatalf("%s: k2 = %d, want %d (atomicity)", name, v, base2)
		}
	}

	// Fault 1a: a natural NO vote at prepare — branch 2 updates a key that
	// does not exist, so its prepare fails after branch 1 already voted YES.
	bad := []cluster.Branch{
		{Part: 0, Proc: "micro_rw", Args: []catalog.Value{catalog.LongVal(k1), catalog.LongVal(666)}},
		{Part: 1, Proc: "micro_rw", Args: []catalog.Value{catalog.LongVal(tpRows + 1), catalog.LongVal(666)}},
	}
	requireAborted("no-vote", conn.ExecMulti(bad))

	// Fault 1b: coordinator-side abort before the second PREPARE2PC is sent.
	conn.Faults.AbortAtPrepare = func(_ uint64, branch int) bool { return branch == 1 }
	requireAborted("abort-at-prepare", conn.ExecMulti(pair(k1, k2, 666)))
	conn.Faults.AbortAtPrepare = nil

	// Fault 2: abort in the window between unanimous YES votes and commit.
	conn.Faults.AbortAfterVotes = func(uint64) bool { return true }
	requireAborted("abort-after-votes", conn.ExecMulti(pair(k1, k2, 666)))
	conn.Faults.AbortAfterVotes = nil

	// Fault 3: the decision never reaches the participants. Both hold
	// prepared branches until their decision timeout fires and they presume
	// abort; the client still gets a definitive abort immediately.
	conn.Faults.DropDecision = func(uint64) bool { return true }
	requireAborted("drop-decision", conn.ExecMulti(pair(k1, k2, 666)))
	conn.Faults.DropDecision = nil

	// The partitions must come back: the next single-partition writes queue
	// behind the parked workers and execute once the timeout resolves them.
	if err := conn.Exec(0, "micro_rw", []catalog.Value{catalog.LongVal(k1), catalog.LongVal(7002)}); err != nil {
		t.Fatalf("exec after drop-decision: %v", err)
	}
	if err := conn.Exec(1, "micro_rw", []catalog.Value{catalog.LongVal(k2), catalog.LongVal(7002)}); err != nil {
		t.Fatalf("exec after drop-decision: %v", err)
	}
	base1, base2 = 7002, 7002

	// Fault 4: commit, but never wait for branch 1's commit ack. Still a
	// commit everywhere; the stray ack is dropped when it arrives.
	conn.Faults.SkipCommitAck = func(_ uint64, branch int) bool { return branch == 0 }
	if err := conn.ExecMulti(pair(k1, k2, 7003)); err != nil {
		t.Fatalf("skip-commit-ack: %v", err)
	}
	conn.Faults.SkipCommitAck = nil
	// Nobody awaited partition 0's commit, so it may still be resolving: a
	// write to another partition-0 key, queued behind it on the same
	// connection, returns only after it.
	if err := conn.Exec(0, "micro_rw", []catalog.Value{catalog.LongVal(k1 - 4), catalog.LongVal(1)}); err != nil {
		t.Fatalf("exec after unacked commit: %v", err)
	}
	if v := microVal(t, m, srvs, k1); v != 7003 {
		t.Fatalf("k1 = %d after unacked commit, want 7003", v)
	}
	if v := microVal(t, m, srvs, k2); v != 7003 {
		t.Fatalf("k2 = %d after unacked commit, want 7003", v)
	}
	// The connection keeps working after the stray.
	if err := conn.Exec(0, "micro_rw", []catalog.Value{catalog.LongVal(k1), catalog.LongVal(7004)}); err != nil {
		t.Fatalf("exec after stray ack: %v", err)
	}
	if v := microVal(t, m, srvs, k1); v != 7004 {
		t.Fatalf("k1 = %d, want 7004", v)
	}
}

// TestTwoPCDrainWithInFlight verifies a participant drains cleanly while
// holding a prepared branch whose decision was dropped: Shutdown must wait
// for the presumed-abort timeout to retire the request, not hang and not
// install the write.
func TestTwoPCDrainWithInFlight(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	srvs, conn := startCluster(t, m, tpSpec, 400*time.Millisecond)
	k1, k2 := int64(4), int64(10) // partitions 0 and 2: one branch per node
	conn.Faults.DropDecision = func(uint64) bool { return true }
	if err := conn.ExecMulti(pair(k1, k2, 666)); !errors.Is(err, cluster.ErrAborted) {
		t.Fatalf("drop-decision: err = %v, want ErrAborted", err)
	}

	// Both participants now hold prepared branches with no decision coming.
	done := make(chan struct{})
	go func() {
		for _, srv := range srvs {
			srv.Shutdown()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not drain the in-flight 2PC within 10s")
	}

	// Presumed abort: neither write installed.
	for _, k := range []int64{k1, k2} {
		node := m.Owner(int(k) % m.Parts)
		var tbl *engine.Table
		for _, et := range srvs[node].Engine().Tables() {
			if et.Name == "micro" {
				tbl = et
			}
		}
		row, ok := tbl.LookupRow([]catalog.Value{catalog.LongVal(k)})
		if !ok {
			t.Fatalf("key %d missing on node %d", k, node)
		}
		if row[1].I == 666 {
			t.Fatalf("key %d: aborted 2PC write was installed", k)
		}
	}
}

// TestGtidsUniqueAcrossCoordinators: two coordinators (two oltpdrive
// processes, here two Conns) must never issue the same global transaction
// ID, or a stray decision from one could resolve the other's prepared branch.
// The ID is (coordinator id << 32) | per-Conn sequence, captured here through
// the AbortAfterVotes hook, which sees every transaction's gtid.
func TestGtidsUniqueAcrossCoordinators(t *testing.T) {
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	srvs, first := startCluster(t, m, tpSpec, 500*time.Millisecond)
	addrs := make([]string, len(srvs))
	for i, s := range srvs {
		addrs[i] = s.Addr().String()
	}
	second, err := cluster.Dial(cluster.Config{Addrs: addrs, Map: m, Spec: tpSpec})
	if err != nil {
		t.Fatalf("second Dial: %v", err)
	}
	defer second.Close()

	seen := make(map[uint64]bool)
	var high [2]uint64
	for i, conn := range []*cluster.Conn{first, second} {
		conn.Faults.AbortAfterVotes = func(gtid uint64) bool {
			if seen[gtid] {
				t.Errorf("gtid %#x issued twice", gtid)
			}
			seen[gtid] = true
			high[i] = gtid >> 32
			return false
		}
	}
	for i := int64(0); i < 6; i++ {
		for _, conn := range []*cluster.Conn{first, second} {
			if err := conn.ExecMulti(pair(8, 13, 100+i)); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
	if len(seen) != 12 {
		t.Fatalf("%d distinct gtids over 12 transactions", len(seen))
	}
	if high[0] == high[1] {
		t.Fatalf("both coordinators drew id %#x", high[0])
	}
}
