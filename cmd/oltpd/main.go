// Command oltpd serves a simulated OLTP engine over TCP: the serving-path
// counterpart of the closed-loop harness. One engine shard per worker, each
// pinned to its simulated core (and, with -placement partitioned on a
// multi-socket machine, to the socket that homes its data); clients speak
// the internal/wire protocol; live PMU counters, stall breakdowns,
// throughput and latency quantiles are exported at -metrics-addr/metrics.
//
// Usage:
//
//	oltpd -addr 127.0.0.1:7890 -metrics-addr 127.0.0.1:7891 \
//	      -system voltdb -shards 2 -workload hybrid -warehouses 2
//
// Cluster mode: -cluster gives the shared shard map ("range:2x4" = range
// placement, 2 nodes, 4 partitions) and -node this process's node ID. The
// engine keeps the global partition count but loads and serves only the
// partitions the map assigns to this node; multi-partition transactions
// arrive as 2PC frames from a cluster-mode oltpdrive:
//
//	oltpd -addr 127.0.0.1:7890 -cluster range:2x4 -node 0 &
//	oltpd -addr 127.0.0.1:7990 -cluster range:2x4 -node 1 &
//
// SIGINT/SIGTERM drain gracefully: in-flight requests complete and receive
// responses, new requests are refused with a draining error, then sockets
// close.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"oltpsim/internal/cluster"
	"oltpsim/internal/core"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

func main() {
	fs := flag.NewFlagSet("oltpd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7890", "listen address")
		metricsAddr = fs.String("metrics-addr", "127.0.0.1:7891", "metrics HTTP address ('' disables)")
		system      = fs.String("system", "voltdb", "engine archetype: shore-mt|dbmsd|voltdb|hyper|dbmsm")
		shards      = fs.Int("shards", 2, "shard/worker count (simulated cores)")
		sockets     = fs.Int("sockets", 0, "simulated sockets (0 = topology default: 1 per 10 cores)")
		placement   = fs.String("placement", "interleaved", "NUMA data placement: interleaved|partitioned")
		clusterMap  = fs.String("cluster", "", "cluster shard map, e.g. range:2x4 ('' = standalone)")
		node        = fs.Int("node", 0, "this process's node ID in -cluster")
		admitQueue  = fs.Int("admit-queue", 0, "admission control: shed (overload error) when a shard queue holds this many requests (0 = off)")
		admitLat    = fs.Duration("admit-latency", 0, "admission control: shed while a shard's service-latency EWMA exceeds this bound (0 = off)")
		collectors  = fs.String("collectors", "", "comma-separated collector groups a bare /metrics scrape serves ("+strings.Join(server.CollectorGroups(), ",")+"; '' = all); any scrape can override with ?collect=")
	)
	spec := workload.SpecFlags(fs)
	fs.Parse(os.Args[1:])

	kind, err := systems.ParseKind(*system)
	if err != nil {
		fatal(err)
	}
	var place core.HomePlacement
	switch *placement {
	case "interleaved":
		place = core.PlaceInterleaved
	case "partitioned":
		place = core.PlacePartitioned
	default:
		fatal(fmt.Errorf("oltpd: unknown -placement %q (want interleaved|partitioned)", *placement))
	}

	cfg := server.Config{
		System:          kind,
		Shards:          *shards,
		Sockets:         *sockets,
		Placement:       place,
		Spec:            *spec,
		AdmitQueueMax:   *admitQueue,
		AdmitLatencyMax: *admitLat,
	}
	if *clusterMap != "" {
		m, err := cluster.Parse(*clusterMap)
		if err != nil {
			fatal(err)
		}
		cfg.Cluster = m
		cfg.Node = *node
	}
	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *collectors != "" {
		if err := s.Registry().SetDefaultGroups(strings.Split(*collectors, ",")...); err != nil {
			fatal(err)
		}
	}
	// Bind every listener before accepting or announcing: a metrics address
	// that cannot be bound is fatal (serving on without it would leave
	// scrapers reading whatever else owns the port), so it must fail before
	// any client can connect to a node that is about to exit.
	metricsURL := ""
	if *metricsAddr != "" {
		_, url, err := s.Registry().Listen(*metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("oltpd: -metrics-addr: %w", err))
		}
		metricsURL = url
	}
	if err := s.Start(*addr); err != nil {
		fatal(err)
	}
	if cfg.Cluster != nil {
		fmt.Printf("oltpd: serving %s on %s (%s, node %d of %s, local partitions %v)\n",
			s.Spec(), s.Addr(), kind, *node, cfg.Cluster, cfg.Cluster.LocalParts(*node))
	} else {
		fmt.Printf("oltpd: serving %s on %s (%s, %d shards)\n",
			s.Spec(), s.Addr(), kind, s.Shards())
	}
	if metricsURL != "" {
		fmt.Printf("oltpd: metrics at %s\n", metricsURL)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("oltpd: draining...")
	s.Shutdown()
	fmt.Println("oltpd: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
