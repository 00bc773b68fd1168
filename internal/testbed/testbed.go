// Package testbed brings up live oltpd nodes on loopback: the one place
// besides cmd/oltpd that builds and starts a server.Server. Figures and e2e
// tests describe the deployment they want as a server.Config, get back a Bed
// to aim a driver at and scrape, and stop it with the books checked — start,
// drive, scrape, drain written once.
package testbed

import (
	"fmt"
	"net/http"

	"oltpsim/internal/driver"
	"oltpsim/internal/metrics"
	"oltpsim/internal/server"
)

// Bed is a running deployment: one node, or one per node of the shard map.
type Bed struct {
	// Nodes are the running servers and Addrs their serving addresses, both
	// indexed by node ID.
	Nodes []*server.Server
	Addrs []string

	cfg     server.Config
	scrapes []*http.Server // one per node once MetricsURLs has run
	urls    []string
}

// Start builds and starts the deployment cfg describes on free loopback
// ports: a single node, or — when cfg.Cluster is set — every node of the map
// (cfg.Node is then ignored). Either every node comes up or none is left
// running.
func Start(cfg server.Config) (*Bed, error) { return start(cfg, startNode) }

func start(cfg server.Config, node func(server.Config) (*server.Server, error)) (*Bed, error) {
	b := &Bed{cfg: cfg}
	nodes := 1
	if cfg.Cluster != nil {
		nodes = cfg.Cluster.Nodes
	}
	for i := 0; i < nodes; i++ {
		if cfg.Cluster != nil {
			cfg.Node = i
		}
		srv, err := node(cfg)
		if err != nil {
			b.shutdown()
			return nil, fmt.Errorf("testbed: node %d: %w", i, err)
		}
		b.Nodes = append(b.Nodes, srv)
		b.Addrs = append(b.Addrs, srv.Addr().String())
	}
	return b, nil
}

func startNode(cfg server.Config) (*server.Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

// Target aims d at the bed: it fills in the address (or addresses and shard
// map) and the served workload spec, and leaves every other field alone.
func (b *Bed) Target(d driver.Config) driver.Config {
	d.Spec = b.cfg.Spec
	if b.cfg.Cluster != nil {
		d.Addrs, d.Map = b.Addrs, b.cfg.Cluster
	} else {
		d.Addr = b.Addrs[0]
	}
	return d
}

// Scrape reads every node's registry — the named collector groups, or all of
// them — and returns the samples indexed by node ID.
func (b *Bed) Scrape(groups ...string) ([]metrics.Samples, error) {
	out := make([]metrics.Samples, len(b.Nodes))
	for i, n := range b.Nodes {
		text, err := n.Registry().RenderGroups(groups)
		if err == nil {
			out[i], err = metrics.Parse(text)
		}
		if err != nil {
			return nil, fmt.Errorf("testbed: node %d: %w", i, err)
		}
	}
	return out, nil
}

// MetricsURLs returns one real /metrics HTTP endpoint per node, like oltpd's
// -metrics-addr; the listeners start on first use and close with Stop.
func (b *Bed) MetricsURLs() ([]string, error) {
	for i := len(b.urls); i < len(b.Nodes); i++ {
		hs, url, err := b.Nodes[i].Registry().Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("testbed: node %d: %w", i, err)
		}
		b.scrapes = append(b.scrapes, hs)
		b.urls = append(b.urls, url)
	}
	return b.urls, nil
}

// Stop drains and shuts down every node, then checks the books: a node that
// admitted a request must have answered it, whatever the traffic was and
// however it ended. Safe to call more than once.
func (b *Bed) Stop() error {
	b.shutdown()
	nodes, err := b.Scrape("serving")
	if err != nil {
		return err
	}
	for i, s := range nodes {
		admitted, answered := s.Sum("oltpd_requests_total"), s.Sum("oltpd_request_seconds_count")
		if admitted != answered {
			return fmt.Errorf("testbed: node %d admitted %.0f requests and answered %.0f", i, admitted, answered)
		}
	}
	return nil
}

func (b *Bed) shutdown() {
	for _, hs := range b.scrapes {
		hs.Close()
	}
	for _, n := range b.Nodes {
		n.Shutdown()
	}
}
