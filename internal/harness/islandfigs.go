package harness

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/driver"
	"oltpsim/internal/metrics"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// The islands figures (FigI1-FigI3) measure the distributed serving tier:
// N oltpd nodes sharing one shard map, driven by the cluster-mode oltpdrive
// coordinator with a configurable multi-partition (2PC) fraction — the
// "OLTP on Hardware Islands" deployment question (how much does crossing a
// node boundary cost, and how fast does 2PC erode single-node throughput?)
// asked of this codebase's simulated engines. Like the serve figures they
// measure wall-clock behavior of this process on this machine, so their
// output is NOT deterministic and is excluded from `-figure all` and the
// byte-identity goldens.

// IslandFigures maps the islands figure IDs to builders (keyword: -figure
// islands).
var IslandFigures = map[string]Builder{
	"I1": FigI1,
	"I2": FigI2,
	"I3": FigI3,
}

// IslandFigureIDs returns the islands figure IDs in presentation order.
func IslandFigureIDs() []string {
	ids := make([]string, 0, len(IslandFigures))
	for id := range IslandFigures {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

const islandParts = 4

func islandSpec() workload.Spec {
	return workload.Spec{Kind: "micro", Rows: 200_000, RowsPerTx: 1, ReadWrite: true}
}

// islandCluster starts one oltpd per node of the map, all serving the same
// workload on loopback. The caller must invoke stop (idempotent per server)
// when done.
func islandCluster(m *cluster.ShardMap, spec workload.Spec) (srvs []*server.Server, addrs []string, stop func(), err error) {
	stop = func() {
		for _, s := range srvs {
			s.Shutdown()
		}
	}
	for i := 0; i < m.Nodes; i++ {
		srv, err := server.New(server.Config{
			System:  systems.VoltDB,
			Spec:    spec,
			Cluster: m,
			Node:    i,
		})
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			stop()
			return nil, nil, nil, err
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr().String())
	}
	return srvs, addrs, stop, nil
}

// islandCell runs one cluster measurement: nodes oltpd processes sharing an
// islandParts-partition map under the given placement policy, driven closed
// loop with the given multi-partition percentage.
func islandCell(r *Runner, policy string, nodes, mpPct int) (*driver.Report, error) {
	serveMu.Lock()
	defer serveMu.Unlock()
	m, err := cluster.NewMap(policy, nodes, islandParts)
	if err != nil {
		return nil, err
	}
	spec := islandSpec()
	_, addrs, stop, err := islandCluster(m, spec)
	if err != nil {
		return nil, err
	}
	defer stop()

	warm, measure := serveWindows(r.Scale)
	return driver.Run(driver.Config{
		Addrs:   addrs,
		Map:     m,
		Spec:    spec,
		Conns:   2 * nodes,
		MPRate:  mpPct,
		Warmup:  warm,
		Measure: measure,
		Seed:    42,
	})
}

// FigI1: closed-loop throughput and tail latency versus node count at a
// fixed multi-partition rate — the headline islands trade: spreading the
// same partitions across more nodes buys parallel sockets but puts 2PC and
// a network hop inside the multi-partition path.
func FigI1(r *Runner) *Figure {
	f := &Figure{
		ID:     "I1",
		Title:  "cluster loopback: throughput/latency vs node count (4 partitions, range placement, 5% multi-partition)",
		Header: []string{"Nodes", "Throughput op/s", "p50", "p99", "2PC commits"},
		Notes: []string{
			"live serving measurement (wall clock) — not deterministic, not golden-locked",
		},
	}
	for _, nodes := range []int{1, 2, 4} {
		rep, err := islandCell(r, "range", nodes, 5)
		if err != nil {
			f.Notes = append(f.Notes, fmt.Sprintf("nodes=%d failed: %v", nodes, err))
			continue
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%.0f", rep.Throughput),
			rep.P50.Round(time.Microsecond).String(),
			rep.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", rep.MultiPart),
		})
	}
	return f
}

// FigI2: throughput and p99 versus multi-partition rate, range versus hash
// placement on two nodes. Range placement keeps partition neighbors on one
// node, so the low-rate sweep stays mostly local; hash placement scatters
// them, turning more of the same traffic into cross-node 2PC.
func FigI2(r *Runner) *Figure {
	f := &Figure{
		ID:     "I2",
		Title:  "cluster loopback: throughput/p99 vs multi-partition rate, range vs hash placement (2 nodes, 4 partitions)",
		Header: []string{"MP rate", "Placement", "Throughput op/s", "p99", "2PC commits"},
		Notes: []string{
			"live serving measurement (wall clock) — not deterministic, not golden-locked",
		},
	}
	for _, mp := range []int{0, 5, 20, 50} {
		for _, policy := range []string{"range", "hash"} {
			rep, err := islandCell(r, policy, 2, mp)
			if err != nil {
				f.Notes = append(f.Notes, fmt.Sprintf("mp=%d%%/%s failed: %v", mp, policy, err))
				continue
			}
			f.Rows = append(f.Rows, []string{
				fmt.Sprintf("%d%%", mp),
				policy,
				fmt.Sprintf("%.0f", rep.Throughput),
				rep.P99.Round(time.Microsecond).String(),
				fmt.Sprintf("%d", rep.MultiPart),
			})
		}
	}
	return f
}

// nodeScrape is the per-node telemetry FigI3 aggregates from one /metrics
// exposition: 2PC branch counters and the simulated-PMU stall breakdown
// grouped into instruction, data, and remote classes.
type nodeScrape struct {
	prepares, commits, aborts float64
	iStall, dStall, remote    float64
}

// scrapeNode fetches one node's /metrics over real HTTP and aggregates it.
func scrapeNode(url string) (nodeScrape, error) {
	var ns nodeScrape
	resp, err := http.Get(url)
	if err != nil {
		return ns, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ns, err
	}
	parsed, err := metrics.Parse(string(body))
	if err != nil {
		return ns, err
	}
	comp := func(k, c string) bool { return strings.Contains(k, `component="`+c+`"`) }
	for _, k := range metrics.SortedKeys(parsed) {
		v := parsed[k]
		switch {
		case strings.HasPrefix(k, "oltpd_2pc_prepares_total"):
			ns.prepares += v
		case strings.HasPrefix(k, "oltpd_2pc_commits_total"):
			ns.commits += v
		case strings.HasPrefix(k, "oltpd_2pc_aborts_total"):
			ns.aborts += v
		case !strings.HasPrefix(k, "oltpd_stall_cycles_total"):
		case comp(k, "l1i") || comp(k, "l2i") || comp(k, "llci"):
			ns.iStall += v
		case comp(k, "remote_i") || comp(k, "remote_d"):
			ns.remote += v
		case comp(k, "l1d") || comp(k, "l2d") || comp(k, "llcd"):
			ns.dStall += v
		}
	}
	return ns, nil
}

// FigI3: per-node 2PC traffic and simulated-PMU stall breakdown on a
// two-node cluster at a 20% multi-partition rate, scraped from each node's
// /metrics endpoint over HTTP — the observability path the cluster smoke
// test exercises, measured rather than just probed.
func FigI3(r *Runner) *Figure {
	f := &Figure{
		ID:     "I3",
		Title:  "cluster loopback: per-node 2PC counters and stall breakdown via /metrics (2 nodes, 20% multi-partition)",
		Header: []string{"Node", "2PC prepares", "2PC commits", "2PC aborts", "I-stall cyc", "D-stall cyc", "Remote cyc"},
		Notes: []string{
			"live serving measurement (wall clock; simulated-PMU stalls) — not deterministic, not golden-locked",
			"counters scraped from each node's Prometheus /metrics endpoint over loopback HTTP",
		},
	}
	serveMu.Lock()
	defer serveMu.Unlock()
	m, err := cluster.NewMap("range", 2, islandParts)
	if err != nil {
		f.Notes = append(f.Notes, fmt.Sprintf("shard map: %v", err))
		return f
	}
	spec := islandSpec()
	srvs, addrs, stop, err := islandCluster(m, spec)
	if err != nil {
		f.Notes = append(f.Notes, fmt.Sprintf("cluster start: %v", err))
		return f
	}
	defer stop()

	// One real /metrics HTTP endpoint per node, like oltpd's -metrics-addr.
	urls := make([]string, len(srvs))
	for i, srv := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Notes = append(f.Notes, fmt.Sprintf("metrics listener: %v", err))
			return f
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Registry())
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		defer hs.Close()
		urls[i] = "http://" + ln.Addr().String() + "/metrics"
	}

	warm, measure := serveWindows(r.Scale)
	if _, err := driver.Run(driver.Config{
		Addrs:   addrs,
		Map:     m,
		Spec:    spec,
		Conns:   4,
		MPRate:  20,
		Warmup:  warm,
		Measure: measure,
		Seed:    42,
	}); err != nil {
		f.Notes = append(f.Notes, fmt.Sprintf("drive failed: %v", err))
		return f
	}

	for i, url := range urls {
		ns, err := scrapeNode(url)
		if err != nil {
			f.Notes = append(f.Notes, fmt.Sprintf("node %d scrape failed: %v", i, err))
			continue
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.0f", ns.prepares),
			fmt.Sprintf("%.0f", ns.commits),
			fmt.Sprintf("%.0f", ns.aborts),
			fmt.Sprintf("%.3g", ns.iStall),
			fmt.Sprintf("%.3g", ns.dStall),
			fmt.Sprintf("%.3g", ns.remote),
		})
	}
	return f
}
