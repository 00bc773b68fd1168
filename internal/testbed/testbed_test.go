package testbed

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/driver"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

var spec = workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1, ReadWrite: true}

// A 2-node map starts both nodes, each serving exactly the partitions the
// map assigns to it, and Target aims a cluster driver at them; after a real
// run every admitted request has been answered, so Stop returns nil.
func TestStartClusterDriveStop(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	bed, err := Start(server.Config{System: systems.VoltDB, Spec: spec, Cluster: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(bed.Nodes) != 2 {
		t.Fatalf("%d nodes for a 2-node map", len(bed.Nodes))
	}
	for node, srv := range bed.Nodes {
		var local []int
		for p := 0; p < m.Parts; p++ {
			if srv.Engine().OwnsPartition(p) {
				local = append(local, p)
			}
		}
		if want := m.LocalParts(node); !reflect.DeepEqual(local, want) {
			t.Errorf("node %d serves partitions %v, the map assigns %v", node, local, want)
		}
	}

	d := bed.Target(driver.Config{Conns: 2, MPRate: 20, Seed: 1,
		Warmup: 20 * time.Millisecond, Measure: 100 * time.Millisecond})
	if d.Map != m || !reflect.DeepEqual(d.Addrs, bed.Addrs) || d.Spec != spec || d.Addr != "" {
		t.Fatalf("Target filled %+v", d)
	}
	rep, err := driver.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.MultiPart == 0 {
		t.Fatalf("run measured %d ops, %d multi-partition commits", rep.Ops, rep.MultiPart)
	}

	urls, err := bed.MetricsURLs()
	if err != nil || len(urls) != 2 {
		t.Fatalf("MetricsURLs = %v, %v", urls, err)
	}
	scraped, err := driver.MetricsScraper(urls[1])()
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := bed.Scrape("twopc")
	if err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].Sum("oltpd_2pc_commits_total"); got == 0 || got != scraped[`oltpd_2pc_commits_total{shard="2"}`]+scraped[`oltpd_2pc_commits_total{shard="3"}`] {
		t.Errorf("node 1 committed %v 2PC branches by the registry, HTTP scrape disagrees", got)
	}
	if _, ok := nodes[1][`oltpd_requests_total{shard="2"}`]; ok {
		t.Error("a twopc-only scrape carries serving families")
	}

	if err := bed.Stop(); err != nil {
		t.Fatalf("Stop after a run: %v", err)
	}
	if err := bed.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if _, err := driver.MetricsScraper(urls[0])(); err == nil {
		t.Error("metrics endpoint still answers after Stop")
	}
}

// A single-node config yields one node and an Addr target.
func TestStartSingleNode(t *testing.T) {
	bed, err := Start(server.Config{System: systems.VoltDB, Shards: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	d := bed.Target(driver.Config{})
	if len(bed.Nodes) != 1 || d.Addr != bed.Addrs[0] || d.Addrs != nil || d.Map != nil {
		t.Fatalf("%d nodes, target %+v", len(bed.Nodes), d)
	}
	if err := bed.Stop(); err != nil {
		t.Fatal(err)
	}
}

// A config server.New refuses comes back as the error, with no bed.
func TestStartRefusedConfig(t *testing.T) {
	bed, err := Start(server.Config{Spec: workload.Spec{Kind: "no-such-workload"}})
	if err == nil || bed != nil {
		t.Fatalf("Start = %v, %v; want an error and no bed", bed, err)
	}
	if !strings.Contains(err.Error(), "node 0") {
		t.Errorf("error does not name the node: %v", err)
	}
}

// All or nothing: when node 1 fails to start, node 0 — already serving — is
// shut down, so nothing is left listening.
func TestStartFailureLeavesNothingRunning(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var addr0 string
	bed, err := start(server.Config{System: systems.VoltDB, Spec: spec, Cluster: m},
		func(cfg server.Config) (*server.Server, error) {
			if cfg.Node == 1 {
				return nil, boom
			}
			srv, err := startNode(cfg)
			if err == nil {
				addr0 = srv.Addr().String()
			}
			return srv, err
		})
	if !errors.Is(err, boom) || bed != nil {
		t.Fatalf("start = %v, %v; want the node's error and no bed", bed, err)
	}
	if addr0 == "" {
		t.Fatal("node 0 never started")
	}
	if c, err := net.Dial("tcp", addr0); err == nil {
		c.Close()
		t.Fatalf("node 0 still accepts connections at %s after the failed start", addr0)
	}
}
