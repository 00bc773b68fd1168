package harness

import (
	"strings"
	"testing"

	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "full", ""} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatalf("ScaleByName(%q): %v", name, err)
		}
		for _, label := range SizeLabels() {
			if s.Bytes[label] <= 0 {
				t.Errorf("scale %q has no bytes for %s", name, label)
			}
		}
		// The large proxies must be far beyond the 20MB LLC, the small sizes
		// within it.
		if s.Bytes[Size10GB] < 3*(20<<20) {
			t.Errorf("scale %q: 10GB proxy %d too close to the LLC", name, s.Bytes[Size10GB])
		}
		if s.Bytes[Size10MB] > 20<<20 {
			t.Errorf("scale %q: 10MB point larger than the LLC", name)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestSizingHelpers(t *testing.T) {
	if MicroRows(1<<20, false) < 1024 {
		t.Error("micro rows floor broken")
	}
	if MicroRows(1<<30, false) <= MicroRows(1<<20, false) {
		t.Error("micro rows not monotonic in bytes")
	}
	if MicroRows(1<<30, true) >= MicroRows(1<<30, false) {
		t.Error("string rows should be fewer than long rows for the same bytes")
	}
	if TPCBBranches(1<<20) != 1 {
		t.Errorf("small TPC-B sizing = %d branches", TPCBBranches(1<<20))
	}
	if TPCBBranches(1<<30) < 2 {
		t.Error("1GB TPC-B sizing should have several branches")
	}
	if w := TPCCWarehouses(100<<20, 4); w%4 != 0 || w < 4 {
		t.Errorf("TPCCWarehouses(100MB, 4) = %d, want positive multiple of 4", w)
	}
}

// TestSizingModelMatchesArena validates the bytes-per-row footprint model:
// the actual arena allocation for a given byte target must be within a small
// factor of the label for every system (so "fits in LLC" labels stay true).
func TestSizingModelMatchesArena(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several databases")
	}
	const target = 8 << 20 // label: 8MB
	rows := MicroRows(target, false)
	for _, sys := range systems.All() {
		t.Run(sys.String(), func(t *testing.T) {
			t.Parallel() // each subtest owns its engine/machine/arena
			e := systems.New(sys, systems.Options{})
			before := e.Machine().Arena.DataAllocated() // pre-allocated pools etc.
			w := workload.NewMicro(workload.MicroConfig{Rows: rows, RowsPerTx: 1})
			w.Setup(e)
			w.Populate(e)
			got := float64(e.Machine().Arena.DataAllocated() - before)
			if got > 2.8*float64(target) {
				t.Errorf("%s: %d-row micro allocated %.1fMB for an 8MB label (model too optimistic)",
					sys, rows, got/(1<<20))
			}
		})
	}
}

func TestRunnerCachesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment cell")
	}
	r := NewRunner(QuickScale())
	spec := r.MicroCell(systems.HyPer, Size1MB, 1, false, false)
	a := r.Run(spec)
	b := r.Run(spec)
	if a != b {
		t.Error("identical cell specs were not cached")
	}
	other := r.MicroCell(systems.HyPer, Size1MB, 1, true, false)
	if c := r.Run(other); c == a {
		t.Error("distinct cell specs shared a cache entry")
	}
}

func TestResultDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiment cells")
	}
	r1 := NewRunner(QuickScale())
	r2 := NewRunner(QuickScale())
	spec1 := r1.MicroCell(systems.VoltDB, Size1MB, 1, false, false)
	spec2 := r2.MicroCell(systems.VoltDB, Size1MB, 1, false, false)
	a, b := r1.Run(spec1), r2.Run(spec2)
	if a.IPC() != b.IPC() {
		t.Errorf("simulation not deterministic: IPC %v vs %v", a.IPC(), b.IPC())
	}
	if a.PerCore[0].Delta.Instructions != b.PerCore[0].Delta.Instructions {
		t.Error("instruction counters diverged between identical runs")
	}
}

// build renders one registered figure.
func build(t *testing.T, r *Runner, id string) *Figure {
	t.Helper()
	b, ok := FigureBuilder(id)
	if !ok {
		t.Fatalf("figure %s is not registered", id)
	}
	return b(r)
}

func TestFigureIDsCompleteAndOrdered(t *testing.T) {
	ids := FamilyIDs("all")
	if len(ids) != 28 {
		t.Fatalf("FigureIDs lists %d figures, want Table 1 and Figures 1-27", len(ids))
	}
	if ids[0] != "T1" || ids[1] != "1" {
		t.Errorf("ordering starts %v", ids[:3])
	}
	// All paper figures 1..27 present.
	seen := map[string]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for i := 1; i <= 27; i++ {
		id := itoa(i)
		if !seen[id] {
			t.Errorf("figure %s missing from registry", id)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestTableT1Renders(t *testing.T) {
	f := TableT1(NewRunner(QuickScale()))
	s := f.String()
	for _, want := range []string{"Ivy Bridge", "20MB", "167-cycle", "32KB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 rendering missing %q:\n%s", want, s)
		}
	}
	md := f.Markdown()
	if !strings.Contains(md, "| Parameter | Value |") {
		t.Errorf("markdown rendering malformed:\n%s", md)
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{
		ID:     "99",
		Title:  "test figure",
		Header: []string{"A", "BB"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:  []string{"a note"},
	}
	s := f.String()
	if !strings.Contains(s, "Figure 99") || !strings.Contains(s, "a note") {
		t.Errorf("text rendering:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", s)
	}
	md := f.Markdown()
	if !strings.Contains(md, "| A | BB |") || !strings.Contains(md, "| longer | 2 |") {
		t.Errorf("markdown rendering:\n%s", md)
	}
}

// TestFigureBuildersAtQuickScale smoke-runs a representative subset of the
// figure builders end to end (the full set runs via cmd/oltpsim and the
// benchmarks).
func TestFigureBuildersAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiment cells")
	}
	r := runner(t)
	for _, id := range []string{"T1", "3", "7", "9", "12", "26"} {
		fig := build(t, r, id)
		if fig.ID != id {
			t.Errorf("figure %s reports ID %s", id, fig.ID)
		}
		if len(fig.Rows) == 0 {
			t.Errorf("figure %s rendered no rows", id)
		}
		for _, row := range fig.Rows {
			if len(row) != len(fig.Header) {
				t.Errorf("figure %s: row width %d != header %d", id, len(row), len(fig.Header))
			}
		}
	}
}
