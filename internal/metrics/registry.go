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
// scrape selects groups via /metrics?collect=engine,serving (or the
// registry's configured default set), and only the selected groups' families
// collect — so an expensive group (the PMU families, whose prepare hook
// quiesces the engine) can be kept out of a high-frequency poll. Ungrouped
// families render on every scrape.
type Registry struct {
	mu       sync.Mutex
	families []*family
	prepare  []*prepareHook
	defaults []string // groups Render serves when the scrape names none; nil = all
}

type family struct {
	name, help, typ string
	group           string // "" = ungrouped, always rendered
	collect         func(emit func(Sample))
}

// prepareHook is an OnScrape hook, optionally scoped to collector groups:
// it runs only when at least one of its groups is selected (no groups =
// every scrape).
type prepareHook struct {
	f      func()
	groups []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds an ungrouped metric family (rendered on every scrape). typ
// is the Prometheus type ("counter", "gauge", "summary"); collect is called
// on every scrape and emits the family's current samples. Families render
// in registration order.
func (r *Registry) Register(name, typ, help string, collect func(emit func(Sample))) {
	r.register("", name, typ, help, collect)
}

func (r *Registry) register(group, name, typ, help string, collect func(emit func(Sample))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			panic(fmt.Sprintf("metrics: duplicate family %q", name))
		}
	}
	r.families = append(r.families, &family{name: name, help: help, typ: typ, group: group, collect: collect})
}

// Group returns a registrar whose families belong to the named collector
// group.
func (r *Registry) Group(name string) Group { return Group{r: r, name: name} }

// A Group registers families under one collector-group name.
type Group struct {
	r    *Registry
	name string
}

// Register adds a metric family to the group.
func (g Group) Register(name, typ, help string, collect func(emit func(Sample))) {
	g.r.register(g.name, name, typ, help, collect)
}

// RegisterHistogram is Registry.RegisterHistogram scoped to the group.
func (g Group) RegisterHistogram(name, help string, h *Histogram, scale float64, labels ...Label) {
	g.r.registerHistogram(g.name, name, help, h, scale, labels...)
}

// OnScrape installs a hook that runs when the group is selected by a
// scrape, once at the start of Render, before any family collects.
func (g Group) OnScrape(f func()) { g.r.OnScrapeGroups(f, g.name) }

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

// SetDefaultGroups restricts what Render (and a bare /metrics scrape)
// serves to the named groups plus ungrouped families. Unknown names error.
func (r *Registry) SetDefaultGroups(names ...string) error {
	cleaned, err := r.cleanGroups(names)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.defaults = cleaned
	r.mu.Unlock()
	return nil
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

// OnScrape installs a hook that runs once at the start of every Render,
// before any family collects. Use it to take one consistent snapshot of an
// expensive source that several families then read — the freshness of those
// families no longer depends on which of them happens to render first.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	r.prepare = append(r.prepare, &prepareHook{f: f})
	r.mu.Unlock()
}

// OnScrapeGroups installs a hook that runs only when a scrape selects at
// least one of the named groups — the expensive-snapshot escape: a scrape
// excluding those groups skips the snapshot entirely.
func (r *Registry) OnScrapeGroups(f func(), groups ...string) {
	r.mu.Lock()
	r.prepare = append(r.prepare, &prepareHook{f: f, groups: groups})
	r.mu.Unlock()
}

// RegisterHistogram exports h as a Prometheus summary: quantile series plus
// _sum, _count and _max, with values scaled by scale (e.g. 1e-9 to export
// nanosecond recordings in seconds). labels apply to every series.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, scale float64, labels ...Label) {
	r.registerHistogram("", name, help, h, scale, labels...)
}

func (r *Registry) registerHistogram(group, name, help string, h *Histogram, scale float64, labels ...Label) {
	qs := []struct {
		q     float64
		label string
	}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {0.999, "0.999"}}
	r.register(group, name, "summary", help, func(emit func(Sample)) {
		for _, q := range qs {
			emit(Sample{
				Name:   name,
				Labels: append(append([]Label{}, labels...), L("quantile", q.label)),
				Value:  h.Quantile(q.q) * scale,
			})
		}
		emit(Sample{Name: name + "_sum", Labels: labels, Value: float64(h.Sum()) * scale})
		emit(Sample{Name: name + "_count", Labels: labels, Value: float64(h.Count())})
		emit(Sample{Name: name + "_max", Labels: labels, Value: float64(h.Max()) * scale})
	})
}

// Render writes the exposition of the default group selection (all groups
// unless SetDefaultGroups narrowed it) to a string.
func (r *Registry) Render() string {
	r.mu.Lock()
	defaults := r.defaults
	r.mu.Unlock()
	s, err := r.RenderGroups(defaults)
	if err != nil {
		// defaults were validated at SetDefaultGroups time; a group can only
		// have vanished if families were somehow re-registered.
		panic(err)
	}
	return s
}

// RenderGroups writes the exposition of the named collector groups (plus
// ungrouped families). nil selects every group; unknown names error.
func (r *Registry) RenderGroups(names []string) (string, error) {
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
// (overriding the registry's default set); unknown groups are a 400.
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

// SortedKeys returns the keys of a Parse result in lexical order (test
// helper).
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
