package driver_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/driver"
	"oltpsim/internal/olog"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// TestDriveClusterLoopback drives a 2-node cluster over loopback with a 20%
// multi-partition rate: the run must complete ops on both nodes and commit a
// nonzero number of 2PC transactions.
func TestDriveClusterLoopback(t *testing.T) {
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 2, ReadWrite: true}
	bed := startBed(t, server.Config{System: systems.VoltDB, Spec: spec, Cluster: m})

	rep, err := driver.Run(bed.Target(driver.Config{
		Conns:   2,
		MPRate:  20,
		Warmup:  50 * time.Millisecond,
		Measure: 300 * time.Millisecond,
		Seed:    1,
	}))
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("no measured ops")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors in %d ops", rep.Errors, rep.Ops)
	}
	if rep.MultiPart == 0 {
		t.Fatal("no multi-partition commits at a 20% rate")
	}
	if !strings.Contains(rep.String(), "multi-partition commits") {
		t.Fatalf("report does not mention 2PC:\n%s", rep.String())
	}
}

// TestDriveClusterHybridHighMP is the regression test for the two-branch 2PC
// path under the hybrid workload: the second generated call can come out
// analytic (olap_*), and a cross-partition analytic must NOT be routed as a
// single-partition 2PC branch — the engine refuses such branches, which
// before the fix surfaced as a stream of aborted transactions counted as
// errors. At 80% multi-partition rate with 30% OLAP, the bad path is drawn
// hundreds of times per window, so Errors == 0 is the assertion (the TPC-C
// generator has no natural rollbacks).
func TestDriveClusterHybridHighMP(t *testing.T) {
	if raceEnabled {
		t.Skip("hybrid scans serialize past any window under -race on one core; micro cluster tests cover the 2PC surface")
	}
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		Kind: "hybrid", Warehouses: 4, OLAPPercent: 30,
		Items: 80, CustomersPerDistrict: 15, OrdersPerDistrict: 15,
	}
	bed := startBed(t, server.Config{System: systems.VoltDB, Spec: spec, Cluster: m})

	rep, err := driver.Run(bed.Target(driver.Config{
		Conns:   2,
		MPRate:  80,
		Warmup:  50 * time.Millisecond,
		Measure: 400 * time.Millisecond,
		Seed:    9,
	}))
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("no measured ops")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors in %d ops — analytic second draws mis-routed through 2PC", rep.Errors, rep.Ops)
	}
	if rep.MultiPart == 0 {
		t.Fatal("no multi-partition commits at an 80% rate")
	}
}

// park registers proc on c and leaves a 2PC branch prepared-but-undecided on
// part: the partition's worker blocks awaiting the decision and the server's
// request WaitGroup stays open, so a concurrent Shutdown sits in its drain
// phase — refusing all new work with wire.ErrDraining — until release.
// Error-returning, so it is safe to use off the test goroutine.
func park(c *wire.Client, proc string, part int, gtid uint64) error {
	procID, err := c.Prepare(proc)
	if err != nil {
		return err
	}
	// micro keys route by key % parts
	if err := c.Prepare2PC(2, gtid, procID, part, []catalog.Value{catalog.LongVal(int64(part))}); err != nil {
		return err
	}
	_, typ, r, err := c.Recv()
	if err != nil {
		return err
	}
	if typ != wire.MsgVote || r.U8() != 1 {
		return fmt.Errorf("prepare2pc: frame %#x, want a YES vote", typ)
	}
	return nil
}

// release sends the commit decision for the parked branch and closes.
func release(c *wire.Client, part int, gtid uint64) error {
	defer c.Close()
	if err := c.Commit2PC(3, gtid, part); err != nil {
		return err
	}
	_, typ, r, err := c.Recv()
	if err != nil {
		return err
	}
	return wire.Ack(typ, r)
}

// TestDriveClusterDrain: taking one node down mid-measure must surface in the
// cluster report the way it does in single-node mode — drain refusals counted
// as Rejected (not errors) and Elapsed corrected down to the window actually
// covered, so throughput is not diluted over dead time. A full Shutdown
// drains in microseconds under a closed-loop micro load, so the test uses
// Drain() — refusing new work while keeping connections alive — with one of
// node 1's shard workers parked behind an undecided 2PC branch: every
// coordinator deterministically takes a wire.ErrDraining refusal, including
// any that slipped into the parked queue first (they unblock at release and
// are refused on their next routed call, the sockets still open).
func TestDriveClusterDrain(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	bed := startBed(t, server.Config{System: systems.VoltDB, Spec: spec, Cluster: m})

	const gtid = 99
	parkedPart := m.LocalParts(1)[0]
	measure := 2 * time.Second * raceWindowScale
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			time.Sleep(150 * time.Millisecond * raceWindowScale)
			rc, err := wire.Dial(bed.Addrs[1])
			if err != nil {
				return err
			}
			if err := park(rc, "micro_ro", parkedPart, gtid); err != nil {
				rc.Close()
				return err
			}
			bed.Nodes[1].Drain() // synchronous: refusals start before this returns
			time.Sleep(400 * time.Millisecond * raceWindowScale)
			return release(rc, parkedPart, gtid)
		}()
	}()

	rep, err := driver.Run(bed.Target(driver.Config{
		Conns:   2,
		MPRate:  20,
		Warmup:  20 * time.Millisecond * raceWindowScale,
		Measure: measure,
		Seed:    5,
	}))
	if perr := <-errc; perr != nil {
		t.Fatalf("park/release: %v", perr)
	}
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("no ops completed before the drain")
	}
	if rep.Rejected == 0 {
		t.Fatal("drain refusals never counted into Rejected")
	}
	if rep.Elapsed >= measure {
		t.Fatalf("Elapsed = %v not corrected below the nominal %v after early termination", rep.Elapsed, measure)
	}
}

// TestScenarioFlashCrowdOnCluster is the composition the driver could not run
// while the cluster target had its own loop: every axis set at once — a
// 2-node cluster with 20% two-branch 2PC and a one-deep admission bound, a
// Poisson flash crowd under time compression, and the timeline plus the
// request log observing it. One complete() accounts both targets, so shed
// requests leave no latency sample and latency is charged from the schedule
// here exactly as on a single node.
func TestScenarioFlashCrowdOnCluster(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1, ReadWrite: true}
	bed := startBed(t, server.Config{System: systems.VoltDB, Spec: spec, Cluster: m, AdmitQueueMax: 1})
	prof, err := driver.ParseProfile("flash:at=0.4,dur=0.25,x=40")
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "run.olog")
	rep, err := driver.Run(bed.Target(driver.Config{
		MPRate:      20,
		Conns:       8, // one call outstanding each: the in-flight cap, and what fills a one-deep queue
		Rate:        600 / float64(raceWindowScale),
		Poisson:     true,
		Seed:        3,
		Profile:     prof,
		ReqLog:      logPath,
		TimeScale:   10,
		Measure:     6 * time.Second,
		Warmup:      500 * time.Millisecond,
		AggInterval: 250 * time.Millisecond,
	}))
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	rows := rep.Timeline
	var csv bytes.Buffer
	if err := driver.WriteTimelineCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.MultiPart == 0 || rep.Shed == 0 {
		t.Fatalf("ops %d, multi-partition commits %d, shed %d: all must be nonzero", rep.Ops, rep.MultiPart, rep.Shed)
	}
	if got := rep.Hist.Count(); got != rep.Ops {
		t.Fatalf("histogram holds %d samples for %d ops: a shed request left a latency sample", got, rep.Ops)
	}
	if rep.DirtyDrains != 0 {
		t.Fatalf("%d connections hit the drain deadline", rep.DirtyDrains)
	}
	if rep.Rate == 0 || !strings.Contains(rep.String(), "open-loop") {
		t.Fatalf("report lost the offered rate:\n%s", rep)
	}
	if lines := strings.Count(csv.String(), "\n"); len(rows) == 0 || lines != len(rows)+1 {
		t.Fatalf("timeline: %d rows, %d CSV lines", len(rows), lines)
	}

	hdr, recs, err := olog.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Rate != rep.Rate {
		t.Fatalf("olog header rate %g, report %g", hdr.Rate, rep.Rate)
	}
	var multi, lagged, shed uint64
	for _, r := range recs {
		if r.MultiPart() {
			multi++
			if r.Sched < r.Start {
				lagged++
			}
		}
		if r.Measured() && r.Status == olog.StatusOverload {
			shed++
		}
	}
	if multi == 0 || lagged == 0 {
		t.Fatalf("%d multi-partition records, %d sent behind schedule: latency is not charged from the schedule", multi, lagged)
	}
	if shed != rep.Shed {
		t.Fatalf("request log holds %d measured shed records, report counts %d", shed, rep.Shed)
	}
}

// TestDriveClusterRejectsBadConfig pins the config validation surface.
func TestDriveClusterRejectsBadConfig(t *testing.T) {
	m, _ := cluster.NewMap("range", 2, 4)
	if _, err := driver.Run(driver.Config{Addrs: []string{"x"}, Map: m}); err == nil {
		t.Fatal("addr/node count mismatch accepted")
	}
	if _, err := driver.Run(driver.Config{
		Addrs: []string{"x", "y"}, Map: m, MPRate: 101,
	}); err == nil {
		t.Fatal("multi-partition rate 101% accepted")
	}
}
