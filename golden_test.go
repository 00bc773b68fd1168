package oltpsim

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/harness"
)

// TestGoldenFigures locks the rendered quick-scale output of every
// deterministic figure family to committed golden files: the paper set (text
// and markdown), the two-socket NUMA set and the HTAP set. The simulation is
// deterministic by construction, so any divergence means a change altered
// modeled behavior — the paper figures (all single-socket) must not move at
// all, and the two-socket and analytical figures must stay deterministic.
// Each family's cells are listed by FigureCells and simulated before the
// build, which then must simulate nothing: the listing is complete. Every
// core of every cell must also balance the cycle ledger (checkCycleLedger).
// Regenerate the goldens (deliberately, with review) via:
//
//	go run ./cmd/oltpsim -figure all -scale quick > testdata/golden_quick.txt
//	go run ./cmd/oltpsim -figure all -scale quick -markdown > testdata/golden_quick.md
//	go run ./cmd/oltpsim -figure numa -scale quick > testdata/golden_numa.txt
//	go run ./cmd/oltpsim -figure htap -scale quick > testdata/golden_olap.txt
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale figure builds; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full quick-scale figure builds; too slow under the race detector")
	}
	for _, tc := range []struct {
		family, text, md string
		cells            int64
	}{
		{"all", "testdata/golden_quick.txt", "testdata/golden_quick.md", 95},
		{"numa", "testdata/golden_numa.txt", "", 20},
		{"htap", "testdata/golden_olap.txt", "", 10},
	} {
		t.Run(tc.family, func(t *testing.T) {
			ids := harness.FamilyIDs(tc.family)
			r := NewRunner(QuickScale())
			cells := r.FigureCells(ids)
			for i, res := range r.RunAll(cells) {
				c := cells[i]
				checkCycleLedger(t, fmt.Sprintf("%v/%s/%+v/c%d", c.Sys, c.Key, c.SysOpts, c.Cores), res)
			}
			prefetched := r.CellsExecuted()
			if int64(len(cells)) != tc.cells || prefetched != tc.cells {
				t.Errorf("FigureCells listed %d cells and the prefetch simulated %d, want %d",
					len(cells), prefetched, tc.cells)
			}
			figs, err := BuildFigures(r, ids)
			if err != nil {
				t.Fatal(err)
			}
			if n := r.CellsExecuted() - prefetched; n != 0 {
				t.Errorf("the build simulated %d cells FigureCells did not list", n)
			}
			var text, md strings.Builder
			for _, fig := range figs {
				text.WriteString(fig.String() + "\n")
				md.WriteString(fig.Markdown() + "\n")
			}
			compareGolden(t, tc.text, text.String())
			if tc.md != "" {
				compareGolden(t, tc.md, md.String())
			}
		})
	}
}

// checkCycleLedger holds a cell's two cycle accounts to each other on every
// measured core: the module ledger — the stall cycles FetchCode and
// DataAccess returned, summed per module, which Figure 7's EngineFraction
// reads — and the miss counters priced at the configured penalties, which
// every other figure reads. The stall sums are integral on both sides and
// must agree exactly; the cycle totals differ only by float summation order.
func checkCycleLedger(t *testing.T, cell string, res *harness.Result) {
	t.Helper()
	for c, m := range res.PerCore {
		var istall, dstall uint64
		var cycles float64
		for mod := core.Module(0); mod < core.NumModules; mod++ {
			istall += m.Delta.Modules[mod].IStallCycles
			dstall += m.Delta.Modules[mod].DStallCycles
			cycles += m.ModuleCycles(mod)
		}
		st := m.Stalls()
		if float64(istall) != st.Instr() || float64(dstall) != st.Data() {
			t.Errorf("%s core %d: module stalls I %d D %d, miss-priced stalls I %v D %v",
				cell, c, istall, dstall, st.Instr(), st.Data())
		}
		if want := m.Cycles(); math.Abs(cycles-want) > 1e-12*want {
			t.Errorf("%s core %d: module cycles %v, miss-priced cycles %v", cell, c, cycles, want)
		}
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s: first divergence at line %d:\n got: %q\nwant: %q",
				path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: output length differs: got %d lines, want %d", path, len(gotLines), len(wantLines))
}
