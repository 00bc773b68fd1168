package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// testRegistry builds a registry with one ungrouped family, two grouped
// families, and a prepare hook scoped to the "pmu" group.
func testRegistry() (*Registry, *int) {
	r := NewRegistry()
	hookRuns := 0
	gauge := func(name string, v float64) func(emit func(Sample)) {
		return func(emit func(Sample)) { emit(Sample{Name: name, Value: v}) }
	}
	r.Register("", "always_on", "gauge", "ungrouped", gauge("always_on", 1))
	r.Register("cheap", "cheap_metric", "gauge", "", gauge("cheap_metric", 2))
	r.Register("pmu", "pmu_metric", "gauge", "", gauge("pmu_metric", 3))
	r.OnScrapeGroups(func() { hookRuns++ }, "pmu")
	return r, &hookRuns
}

func TestRenderGroupsSelects(t *testing.T) {
	r, hookRuns := testRegistry()

	all := r.Render()
	for _, want := range []string{"always_on 1", "cheap_metric 2", "pmu_metric 3"} {
		if !strings.Contains(all, want) {
			t.Fatalf("full render lacks %q:\n%s", want, all)
		}
	}
	if *hookRuns != 1 {
		t.Fatalf("full render ran pmu hook %d times, want 1", *hookRuns)
	}

	cheap, err := r.RenderGroups([]string{"cheap"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cheap, "always_on 1") || !strings.Contains(cheap, "cheap_metric 2") {
		t.Fatalf("cheap render lacks ungrouped/cheap families:\n%s", cheap)
	}
	if strings.Contains(cheap, "pmu_metric") {
		t.Fatalf("cheap render leaked pmu family:\n%s", cheap)
	}
	if *hookRuns != 1 {
		t.Fatalf("cheap render ran pmu hook (runs=%d) — the scoped hook must be skipped", *hookRuns)
	}

	if _, err := r.RenderGroups([]string{"nope"}); err == nil {
		t.Fatal("unknown group accepted")
	}
	if _, err := r.RenderGroups([]string{"  "}); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestGroups(t *testing.T) {
	r, _ := testRegistry()
	got := r.Groups()
	if len(got) != 2 || got[0] != "cheap" || got[1] != "pmu" {
		t.Fatalf("Groups() = %v, want [cheap pmu]", got)
	}
}

func TestServeHTTPCollectParam(t *testing.T) {
	r, hookRuns := testRegistry()

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?collect=cheap", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if strings.Contains(body, "pmu_metric") || !strings.Contains(body, "cheap_metric") {
		t.Fatalf("?collect=cheap body wrong:\n%s", body)
	}
	if *hookRuns != 0 {
		t.Fatalf("?collect=cheap ran pmu hook %d times", *hookRuns)
	}

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?collect=cheap,pmu", nil))
	if !strings.Contains(rec.Body.String(), "pmu_metric 3") {
		t.Fatalf("?collect=cheap,pmu lacks pmu family:\n%s", rec.Body.String())
	}
	if *hookRuns != 1 {
		t.Fatalf("pmu scrape ran hook %d times, want 1", *hookRuns)
	}

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?collect=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("unknown group: status %d, want 400", rec.Code)
	}

	// A bare scrape serves every group.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "pmu_metric 3") {
		t.Fatalf("bare scrape lacks pmu family:\n%s", rec.Body.String())
	}
}

// TestSamplesSumAndStallClasses reads a hand-written exposition: Sum takes a
// family by exact name, honours label filters, never adds quantile series,
// and an unknown family is 0; StallClasses groups the eight stall components
// into the instruction, data and remote classes across shards.
func TestSamplesSumAndStallClasses(t *testing.T) {
	s, err := Parse(`# HELP oltpd_requests_total requests admitted per shard
oltpd_requests_total{shard="0"} 3
oltpd_requests_total{shard="1"} 4
oltpd_requests_total{shard="11"} 100
oltpd_request_seconds{shard="0",quantile="0.5"} 0.25
oltpd_request_seconds{shard="0",quantile="0.99"} 0.5
oltpd_request_seconds_count{shard="0"} 3
oltpd_concurrent 1
oltpd_stall_cycles_total{shard="0",component="l1i"} 1
oltpd_stall_cycles_total{shard="0",component="l2i"} 2
oltpd_stall_cycles_total{shard="0",component="llci"} 4
oltpd_stall_cycles_total{shard="0",component="l1d"} 8
oltpd_stall_cycles_total{shard="0",component="l2d"} 16
oltpd_stall_cycles_total{shard="0",component="llcd"} 32
oltpd_stall_cycles_total{shard="0",component="remote_i"} 64
oltpd_stall_cycles_total{shard="0",component="remote_d"} 128
oltpd_stall_cycles_total{shard="1",component="l1i"} 256
oltpd_stall_cycles_total{shard="1",component="remote_d"} 512
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		family string
		labels []string
		want   float64
	}{
		{"oltpd_requests_total", nil, 107},
		{"oltpd_requests_total", []string{`shard="1"`}, 4}, // not shard="11"
		{"oltpd_requests", nil, 0},                         // a prefix is not the family
		{"oltpd_concurrent", nil, 1},
		{"oltpd_request_seconds", nil, 0}, // quantiles only: nothing to add
		{"oltpd_request_seconds_count", nil, 3},
		{"oltpd_stall_cycles_total", []string{`component="l1i"`}, 257},
		{"oltpd_stall_cycles_total", []string{`shard="0"`, `component="remote_d"`}, 128},
		{"oltpd_stall_cycles_total", []string{`shard="2"`}, 0},
		{"no_such_family", nil, 0},
	} {
		if got := s.Sum(c.family, c.labels...); got != c.want {
			t.Errorf("Sum(%s, %v) = %v, want %v", c.family, c.labels, got, c.want)
		}
	}
	if i, d, r := s.StallClasses(); i != 1+2+4+256 || d != 8+16+32 || r != 64+128+512 {
		t.Errorf("StallClasses = %v, %v, %v", i, d, r)
	}
	if i, d, r := (Samples{}).StallClasses(); i+d+r != 0 {
		t.Errorf("StallClasses of an empty exposition = %v, %v, %v", i, d, r)
	}
}

// TestListenRefusesOccupiedAddress: the metrics endpoint binds before Listen
// returns, so a second registry (a second oltpd) asking for an address the
// first one owns gets an error instead of serving on without its endpoint
// while scrapers read the first one's.
func TestListenRefusesOccupiedAddress(t *testing.T) {
	first, _ := testRegistry()
	srv, url, err := first.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "always_on 1") {
		t.Fatalf("endpoint does not serve the registry:\n%s", body)
	}

	second, _ := testRegistry()
	addr := strings.TrimSuffix(strings.TrimPrefix(url, "http://"), "/metrics")
	if srv2, _, err := second.Listen(addr); err == nil {
		srv2.Close()
		t.Fatalf("a second Listen on %s succeeded", addr)
	}
}
