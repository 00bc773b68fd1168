package metrics

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// A Sample is one exported time-series point: a metric name, an optional
// label set (rendered in registration order), and the current value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label is one key="value" pair.
type Label struct{ Key, Value string }

// L is shorthand for building a label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Registry collects metric families and renders them in the Prometheus text
// exposition format. Collection is pull-based: each registered family is a
// closure invoked at scrape time, so gauges always expose the live value and
// no background goroutine is needed.
//
// Families can belong to named collector groups (wmi_exporter style): a
// scrape selects groups via /metrics?collect=engine,serving (a bare scrape
// selects every group), and only the selected groups' families collect — so
// an expensive group (the PMU families, whose prepare hook quiesces the
// engine) can be kept out of a high-frequency poll. Ungrouped families render
// on every scrape.
//
// Renders are serialized: one render holds the render lock across its hooks
// and its collects, so every family of a scrape reads what that scrape's
// hooks observed, and a hook's observation needs no lock of its own.
type Registry struct {
	renderMu sync.Mutex // held for a whole render
	mu       sync.Mutex // guards the fields below
	families []*family
	prepare  []*prepareHook
}

type family struct {
	name, help, typ string
	group           string // "" = ungrouped, always rendered
	collect         func(emit func(Sample))
}

// prepareHook is an OnScrapeGroups hook: it runs only when at least one of
// its groups is selected (no groups = every scrape).
type prepareHook struct {
	f      func()
	groups []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a metric family to a collector group ("" = ungrouped,
// rendered on every scrape). typ is the Prometheus type ("counter", "gauge",
// "summary"); collect is called on every scrape that selects the group and
// emits the family's current samples. Families render in registration order.
func (r *Registry) Register(group, name, typ, help string, collect func(emit func(Sample))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			panic(fmt.Sprintf("metrics: duplicate family %q", name))
		}
	}
	r.families = append(r.families, &family{name: name, help: help, typ: typ, group: group, collect: collect})
}

// Groups returns the sorted distinct collector-group names.
func (r *Registry) Groups() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	var names []string
	for _, f := range r.families {
		if f.group != "" && !seen[f.group] {
			seen[f.group] = true
			names = append(names, f.group)
		}
	}
	sort.Strings(names)
	return names
}

// cleanGroups trims and validates a requested group list.
func (r *Registry) cleanGroups(names []string) ([]string, error) {
	known := make(map[string]bool)
	for _, g := range r.Groups() {
		known[g] = true
	}
	var cleaned []string
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !known[n] {
			return nil, fmt.Errorf("metrics: unknown collector group %q (have %s)",
				n, strings.Join(r.Groups(), ", "))
		}
		cleaned = append(cleaned, n)
	}
	if len(cleaned) == 0 {
		return nil, fmt.Errorf("metrics: empty collector group selection")
	}
	return cleaned, nil
}

// OnScrapeGroups installs a hook that runs only when a scrape selects at
// least one of the named groups — the expensive-snapshot escape: a scrape
// excluding those groups skips the snapshot entirely.
func (r *Registry) OnScrapeGroups(f func(), groups ...string) {
	r.mu.Lock()
	r.prepare = append(r.prepare, &prepareHook{f: f, groups: groups})
	r.mu.Unlock()
}

// Render writes the exposition of every group to a string.
func (r *Registry) Render() string {
	s, _ := r.RenderGroups(nil) // a nil selection cannot name an unknown group
	return s
}

// RenderGroups writes the exposition of the named collector groups (plus
// ungrouped families). nil selects every group; unknown names error.
func (r *Registry) RenderGroups(names []string) (string, error) {
	r.renderMu.Lock()
	defer r.renderMu.Unlock()
	var selected map[string]bool
	if names != nil {
		cleaned, err := r.cleanGroups(names)
		if err != nil {
			return "", err
		}
		selected = make(map[string]bool, len(cleaned))
		for _, n := range cleaned {
			selected[n] = true
		}
	}
	include := func(group string) bool {
		return group == "" || selected == nil || selected[group]
	}

	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		if include(f.group) {
			fams = append(fams, f)
		}
	}
	hooks := make([]func(), 0, len(r.prepare))
	for _, h := range r.prepare {
		run := len(h.groups) == 0
		for _, g := range h.groups {
			if include(g) {
				run = true
				break
			}
		}
		if run {
			hooks = append(hooks, h.f)
		}
	}
	r.mu.Unlock()

	for _, f := range hooks {
		f()
	}
	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		}
		f.collect(func(s Sample) {
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
				}
				b.WriteByte('}')
			}
			fmt.Fprintf(&b, " %g\n", s.Value)
		})
	}
	return b.String(), nil
}

// ServeHTTP implements http.Handler with the text exposition format. A
// ?collect=group,group query selects collector groups for this scrape
// (without one, every group renders); unknown groups are a 400.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	body := ""
	if q := req.URL.Query().Get("collect"); q != "" {
		var err error
		body, err = r.RenderGroups(strings.Split(q, ","))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		body = r.Render()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, body)
}

// Listen binds addr ("host:port"; port 0 picks a free one) and serves the
// registry at /metrics there until the returned server is closed. The bind
// happens before Listen returns, so an address another process owns is an
// error here — not a log line followed by a scraper reading that other
// process. url is the endpoint as bound.
func (r *Registry) Listen(addr string) (srv *http.Server, url string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r)
	srv = &http.Server{Handler: mux}
	go srv.Serve(ln) // returns once srv is closed
	return srv, "http://" + ln.Addr().String() + "/metrics", nil
}

// Samples is a parsed exposition: one value per "name{labels}" series.
type Samples map[string]float64

// Parse reads an exposition produced by Render back into samples keyed by
// "name{labels}" — the inverse used by tests, the figures and the driver to
// read scraped values. Comment and blank lines are skipped.
func Parse(text string) (Samples, error) {
	out := make(Samples)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// Sum adds up the series of one family — all of them, or only those carrying
// every given label, each written as in the exposition (`shard="0"`).
// Quantile series are skipped (quantiles do not add up) and a family with no
// series sums to 0. What is left to add are counters and gauges of integral
// value, so the map's iteration order cannot change the sum.
func (s Samples) Sum(family string, labels ...string) float64 {
	var sum float64
series:
	for k, v := range s {
		name, rest, _ := strings.Cut(k, "{")
		if name != family || strings.Contains(rest, `quantile="`) {
			continue
		}
		for _, l := range labels {
			if !strings.HasPrefix(rest, l) && !strings.Contains(rest, ","+l) {
				continue series
			}
		}
		sum += v
	}
	return sum
}

// StallClasses groups oltpd_stall_cycles_total, summed over shards, into the
// three classes the figures and timelines report: instruction fetch
// (L1I/L2I/LLC-I), data (L1D/L2D/LLC-D) and the remote-socket share.
func (s Samples) StallClasses() (instr, data, remote float64) {
	class := func(components ...string) (sum float64) {
		for _, c := range components {
			sum += s.Sum("oltpd_stall_cycles_total", `component="`+c+`"`)
		}
		return sum
	}
	return class("l1i", "l2i", "llci"), class("l1d", "l2d", "llcd"), class("remote_i", "remote_d")
}
