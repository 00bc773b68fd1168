package harness

import (
	"reflect"
	"strings"
	"testing"
)

// liveShapes records, per live figure family, everything about one figure
// that does not depend on the wall clock: the strings were taken from the
// builders as they stood before the live figures became rows × columns, so
// the test fences that refactor and any later one. labels are the leading
// label cells of every row, in order (nil = only require at least one row:
// C1's row count follows the timeline).
var liveShapes = []struct {
	id, title     string
	header, notes []string
	labels        [][]string
}{
	{
		id:     "S3",
		title:  "oltpd loopback: throughput and stall breakdown vs shard count on one engine (closed loop)",
		header: []string{"Shards", "Placement", "Mode", "Throughput op/s", "IPC", "I-stall/tx", "D-stall/tx", "Remote/tx"},
		notes: []string{
			"live serving measurement (wall clock throughput; simulated-PMU stalls) — not deterministic, not golden-locked",
			"multi-shard cells execute shard workers concurrently on the one simulated machine (engine concurrent mode)",
		},
		labels: [][]string{
			{"1", "partitioned", "serialized"},
			{"2", "partitioned", "concurrent"},
			{"2", "interleaved", "concurrent"},
			{"4", "partitioned", "concurrent"},
			{"4", "interleaved", "concurrent"},
		},
	},
	{
		id:     "I3",
		title:  "cluster loopback: per-node 2PC counters and stall breakdown via /metrics (2 nodes, 20% multi-partition)",
		header: []string{"Node", "2PC prepares", "2PC commits", "2PC aborts", "I-stall cyc", "D-stall cyc", "Remote cyc"},
		notes: []string{
			"live serving measurement (wall clock; simulated-PMU stalls) — not deterministic, not golden-locked",
			"counters scraped from each node's Prometheus /metrics endpoint over loopback HTTP",
		},
		labels: [][]string{{"0"}, {"1"}},
	},
	{
		id:     "C1",
		title:  "oltpd loopback: diurnal load profile, time-compressed (open loop, 2 shards)",
		header: []string{"Sim time", "Mult", "Achieved sim op/s", "p50", "p99", "Shed"},
		notes: []string{
			"live serving measurement (wall clock) — not deterministic, not golden-locked",
			"5m0s simulated at 120x compression (profile diurnal:lo=0.2)",
		},
	},
}

// TestLiveFigureShapes builds one figure of each live family (serve,
// islands, scenario) at quick scale and checks its shape. Every value cell
// is a wall-clock measurement of this machine, so none is asserted on.
func TestLiveFigureShapes(t *testing.T) {
	r := NewRunner(QuickScale())
	for _, want := range liveShapes {
		// FigureBuilder, not a helper of this package's tests: the file must
		// compile unchanged against the code it fences.
		builder, ok := FigureBuilder(want.id)
		if !ok {
			t.Fatalf("figure %s is not registered", want.id)
		}
		f := builder(r)
		if f.ID != want.id || f.Title != want.title {
			t.Errorf("%s: ID/Title = %q / %q, want %q / %q", want.id, f.ID, f.Title, want.id, want.title)
		}
		if !reflect.DeepEqual(f.Header, want.header) {
			t.Errorf("%s: header = %q, want %q", want.id, f.Header, want.header)
		}
		// Byte-equal notes also rule out an appended "... failed: ..." note;
		// the explicit check names the failure.
		for _, n := range f.Notes {
			if strings.Contains(n, "failed:") {
				t.Errorf("%s: a cell failed: %s", want.id, n)
			}
		}
		if !reflect.DeepEqual(f.Notes, want.notes) {
			t.Errorf("%s: notes = %q, want %q", want.id, f.Notes, want.notes)
		}
		for i, row := range f.Rows {
			if len(row) != len(f.Header) {
				t.Errorf("%s: row %d has %d cells for %d columns: %q", want.id, i, len(row), len(f.Header), row)
			}
		}
		if want.labels == nil {
			if len(f.Rows) == 0 {
				t.Errorf("%s: no rows", want.id)
			}
			continue
		}
		var got [][]string
		for _, row := range f.Rows {
			if n := len(want.labels[0]); len(row) >= n {
				got = append(got, row[:n])
			}
		}
		if !reflect.DeepEqual(got, want.labels) {
			t.Errorf("%s: row labels = %q, want %q", want.id, got, want.labels)
		}
	}
}
