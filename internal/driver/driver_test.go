package driver_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/analyze"
	"oltpsim/internal/core"
	"oltpsim/internal/driver"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/testbed"
	"oltpsim/internal/workload"
)

// startBed starts the deployment on loopback. At cleanup it is stopped and
// its books must balance: every e2e test below also checks that each node
// answered every request it admitted.
func startBed(t *testing.T, cfg server.Config) *testbed.Bed {
	t.Helper()
	bed, err := testbed.Start(cfg)
	if err != nil {
		t.Fatalf("testbed.Start: %v", err)
	}
	t.Cleanup(func() {
		if err := bed.Stop(); err != nil {
			t.Error(err)
		}
	})
	return bed
}

// TestDriveHTAPLoopback is the acceptance demo as a test: oltpdrive sustains
// a mixed TPC-C/analytical workload against a 2-shard oltpd over loopback,
// reports latency quantiles and throughput, and /metrics exposes per-shard
// PMU counters.
func TestDriveHTAPLoopback(t *testing.T) {
	if raceEnabled {
		t.Skip("hybrid scans serialize past any window under -race on one core; micro e2e tests cover the concurrency surface")
	}
	spec := workload.Spec{Kind: "hybrid", Warehouses: 2, OLAPPercent: 20}
	bed := startBed(t, server.Config{
		System:    systems.VoltDB,
		Shards:    2,
		Sockets:   2,
		Placement: core.PlacePartitioned,
		Spec:      spec,
	})

	rep, err := driver.Run(bed.Target(driver.Config{
		Conns:   4,
		Warmup:  50 * time.Millisecond,
		Measure: 300 * time.Millisecond,
		Seed:    1,
	}))
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Shards != 2 {
		t.Fatalf("report shards = %d, want 2", rep.Shards)
	}
	if rep.Ops == 0 {
		t.Fatal("driver measured zero completed operations")
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("errors=%d rejected=%d, want 0/0", rep.Errors, rep.Rejected)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %g", rep.Throughput)
	}
	// Quantiles must be populated and monotone.
	if rep.P50 <= 0 || rep.P50 > rep.P90 || rep.P90 > rep.P99 || rep.P99 > rep.P999 {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v p999=%v",
			rep.P50, rep.P90, rep.P99, rep.P999)
	}
	if time.Duration(rep.Hist.Max()) < rep.P999 {
		t.Fatalf("max %v below p999 %v", time.Duration(rep.Hist.Max()), rep.P999)
	}
	out := rep.String()
	for _, want := range []string{"hybrid:warehouses=2", "throughput", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}

	// Scrape /metrics over real HTTP and assert per-shard PMU counters moved.
	urls, err := bed.MetricsURLs()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := driver.MetricsScraper(urls[0])()
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	var tx float64
	for _, shard := range []string{"0", "1"} {
		v := parsed[`oltpd_tx_total{shard="`+shard+`"}`]
		if v <= 0 {
			t.Fatalf("shard %s saw no transactions", shard)
		}
		tx += v
		if parsed[`oltpd_stall_cycles_total{shard="`+shard+`",component="l1d"}`] <= 0 {
			t.Fatalf("shard %s stall breakdown missing", shard)
		}
	}
	if uint64(tx) < rep.Ops {
		t.Fatalf("server tx %g < driver measured ops %d", tx, rep.Ops)
	}
}

// TestDriveOpenLoop exercises the paced sender with Poisson arrivals at a
// modest offered load and checks the report accounts for the offered rate.
func TestDriveOpenLoop(t *testing.T) {
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	bed := startBed(t, server.Config{System: systems.VoltDB, Shards: 2, Spec: spec})

	rep, err := driver.Run(bed.Target(driver.Config{
		Conns:   2,
		Rate:    2000,
		Poisson: true,
		Warmup:  50 * time.Millisecond * raceWindowScale,
		Measure: 300 * time.Millisecond * raceWindowScale,
		Seed:    2,
	}))
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("open loop measured zero ops")
	}
	// Completions cannot meaningfully exceed the offered load (2000 ops/s ×
	// the measure window); allow 2× for scheduler jitter on loaded machines.
	offered := rep.Rate * rep.Elapsed.Seconds()
	if float64(rep.Ops) > 2*offered {
		t.Fatalf("open loop completed %d ops, far above the %.0f offered", rep.Ops, offered)
	}
	if !strings.Contains(rep.String(), "open-loop") {
		t.Fatalf("report does not mention open loop:\n%s", rep.String())
	}
}

// TestDriveReqLog drives with -reqlog and re-analyzes the captured request
// log offline: counters must match the live report exactly, and the exact
// recomputed quantiles must land within the live histogram's bucket error
// (the histogram is log-linear with ≤1/64 relative error per bucket).
func TestDriveReqLog(t *testing.T) {
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	bed := startBed(t, server.Config{System: systems.VoltDB, Shards: 2, Spec: spec})
	path := filepath.Join(t.TempDir(), "run.olog")

	rep, err := driver.Run(bed.Target(driver.Config{
		Conns:   2,
		Warmup:  50 * time.Millisecond * raceWindowScale,
		Measure: 300 * time.Millisecond * raceWindowScale,
		Seed:    4,
		ReqLog:  path,
	}))
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("driver measured zero ops")
	}

	res, err := analyze.AnalyzeFile(path, analyze.Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !strings.Contains(res.Spec, "micro") {
		t.Fatalf("olog header spec = %q", res.Spec)
	}
	// The log's measured population is exactly the report's: serviced ops
	// (committed + aborted), shed, and nothing lost.
	if res.Total.Ops != rep.Ops || res.Total.Errors != rep.Errors {
		t.Fatalf("analyze ops/errors = %d/%d, report %d/%d",
			res.Total.Ops, res.Total.Errors, rep.Ops, rep.Errors)
	}
	if res.Total.Overload != rep.Shed {
		t.Fatalf("analyze overload = %d, report shed %d", res.Total.Overload, rep.Shed)
	}
	// The file also holds the warmup traffic the analysis excludes.
	if uint64(res.Records) < res.Total.Ops {
		t.Fatalf("file has %d records for %d measured ops", res.Records, res.Total.Ops)
	}
	if res.Covered <= 0 || res.Covered > 1 {
		t.Fatalf("Covered = %v, want (0, 1]", res.Covered)
	}
	if len(res.Shard) != 2 {
		t.Fatalf("per-shard groups = %d, want 2", len(res.Shard))
	}

	// Quantile agreement: exact (offline) vs bucketed (live) on identical
	// latency samples — the gap is bounded by the histogram's bucket width.
	within := func(name string, exact, hist time.Duration) {
		t.Helper()
		tol := hist/16 + 2*time.Microsecond
		diff := exact - hist
		if diff < 0 {
			diff = -diff
		}
		if diff > tol {
			t.Fatalf("%s: analyze %v vs report %v (diff %v > tol %v)", name, exact, hist, diff, tol)
		}
	}
	within("p50", res.Total.P50, rep.P50)
	within("p99", res.Total.P99, rep.P99)
	if res.Total.Max != time.Duration(rep.Hist.Max()) {
		t.Fatalf("max: analyze %v vs report %v (max is exact in both)", res.Total.Max, time.Duration(rep.Hist.Max()))
	}
}

// TestDriveSpecMismatch: a driver generating a different workload than the
// server serves must refuse to start.
func TestDriveSpecMismatch(t *testing.T) {
	bed := startBed(t, server.Config{
		System: systems.VoltDB, Shards: 2,
		Spec: workload.Spec{Kind: "micro", Rows: 4096},
	})
	d := bed.Target(driver.Config{Conns: 1, Warmup: 10 * time.Millisecond, Measure: 10 * time.Millisecond})
	d.Spec = workload.Spec{Kind: "tpcc", Warehouses: 2}
	_, err := driver.Run(d)
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want workload mismatch", err)
	}
}

// TestDriveAgainstDrainingServer: shutting the server down mid-run must not
// hang the driver; refused requests are reported as rejected, not errors —
// with one request in flight per connection, and with 16, where the server
// answers in batches and the sender writes in bursts.
func TestDriveAgainstDrainingServer(t *testing.T) {
	for _, pipeline := range []int{1, 16} {
		t.Run(fmt.Sprintf("pipeline%d", pipeline), func(t *testing.T) {
			spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
			bed := startBed(t, server.Config{System: systems.VoltDB, Shards: 2, Spec: spec})

			go func() {
				time.Sleep(100 * time.Millisecond)
				bed.Nodes[0].Shutdown()
			}()
			rep, err := driver.Run(bed.Target(driver.Config{
				Conns:    2,
				Pipeline: pipeline,
				Warmup:   10 * time.Millisecond,
				Measure:  2 * time.Second,
				Seed:     3,
			}))
			if err != nil {
				t.Fatalf("driver.Run: %v", err)
			}
			if rep.Ops == 0 {
				t.Fatal("no ops completed before the drain")
			}
			// Every connection must drain cleanly through the done channel — a
			// sender stuck on the token ring until the 5s deadline marks the
			// drain dirty.
			if rep.DirtyDrains != 0 {
				t.Fatalf("%d connections hit the drain deadline instead of draining cleanly", rep.DirtyDrains)
			}
		})
	}
}

// TestDrivePipelineDepths runs the one sender rule — queue, and flush before
// blocking — at every depth and in open loop against a live node: every run
// completes without errors or a dirty drain, and the node's books balance at
// Stop (every request it admitted was answered).
func TestDrivePipelineDepths(t *testing.T) {
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	for _, tc := range []struct {
		name string
		cfg  driver.Config
	}{
		{"closed/pipeline1", driver.Config{Pipeline: 1}},
		{"closed/pipeline16", driver.Config{Pipeline: 16}},
		{"closed/pipeline128", driver.Config{Pipeline: 128}},
		{"open/poisson", driver.Config{Rate: 4000, Poisson: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := startBed(t, server.Config{System: systems.VoltDB, Shards: 2, Spec: spec})
			cfg := tc.cfg
			cfg.Conns, cfg.Seed = 2, 6
			cfg.Warmup, cfg.Measure = 30*time.Millisecond*raceWindowScale, 200*time.Millisecond*raceWindowScale
			rep, err := driver.Run(bed.Target(cfg))
			if err != nil {
				t.Fatalf("driver.Run: %v", err)
			}
			if rep.Ops == 0 || rep.Errors != 0 || rep.Rejected != 0 || rep.DirtyDrains != 0 {
				t.Fatalf("ops=%d errors=%d rejected=%d dirty=%d", rep.Ops, rep.Errors, rep.Rejected, rep.DirtyDrains)
			}
		})
	}
}

// TestReportJSONKeys pins the -json report's keys and their order, which
// scripts/smoke.sh and other consumers read: latencies are integer
// nanoseconds under *Ns keys, and the in-process fields stay out.
func TestReportJSONKeys(t *testing.T) {
	b, err := json.Marshal(&driver.Report{P50: 1500 * time.Nanosecond, Timeline: []driver.TimelineRow{{}}})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var keys []string
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		if v, err := dec.Token(); err != nil {
			t.Fatal(err)
		} else if k == "P50Ns" && v != json.Number("1500") {
			t.Fatalf("P50Ns = %v, want integer nanoseconds 1500", v)
		}
	}
	want := []string{"Spec", "Shards", "Conns", "RateOps", "Ops", "Errors", "Rejected", "Shed",
		"MultiPart", "Covered", "Throughput", "MeanNs", "P50Ns", "P90Ns", "P99Ns", "P999Ns", "MaxNs"}
	if !slices.Equal(keys, want) {
		t.Fatalf("report JSON keys:\n got %v\nwant %v", keys, want)
	}
}
