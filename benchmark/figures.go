package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"oltpsim"
)

// goldenSections cuts the committed quick-scale golden into one block per
// figure, keyed by figure id. A block is exactly what `oltpsim -figure <id>`
// prints: the rendered figure followed by one blank line.
func goldenSections(text string) map[string]string {
	head := regexp.MustCompile(`(?m)^== Figure ([^:]+): `)
	locs := head.FindAllStringSubmatchIndex(text, -1)
	out := make(map[string]string, len(locs))
	for i, loc := range locs {
		end := len(text)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		out[text[loc[2]:loc[3]]] = text[loc[0]:end]
	}
	return out
}

// firstDivergence reports where got departs from want: the 1-based line and
// both lines, or a length difference when one is a prefix of the other. It
// returns "" when they are equal.
func firstDivergence(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(g), len(w))
}

// figurePlan is the prefix of the pinned figure list whose reference costs
// fit the measured seconds (never fewer than two figures).
func figurePlan(seconds float64) []pinnedFigure {
	var plan []pinnedFigure
	total := 0.0
	for _, f := range figureList {
		if len(plan) >= 2 && total+f.refSeconds > seconds {
			break
		}
		plan = append(plan, f)
		total += f.refSeconds
	}
	return plan
}

// figureSetup is what `oltpsim -figure ...` does before the first cell: build
// the runner and resolve every requested figure. The benchmark adds reading
// and sectioning the golden it checks against.
func figureSetup(plan []pinnedFigure) (*oltpsim.Runner, map[string]string, error) {
	r := oltpsim.NewRunner(oltpsim.QuickScale())
	r.Workers = min(runtime.NumCPU(), 2)
	known := make(map[string]bool)
	for _, id := range oltpsim.FigureIDs() {
		known[id] = true
	}
	for _, f := range plan {
		if !known[f.id] {
			return nil, nil, fmt.Errorf("pinned figure %q is not a paper figure", f.id)
		}
	}
	text, err := os.ReadFile(filepath.Join("testdata", "golden_quick.txt"))
	if err != nil {
		return nil, nil, err
	}
	return r, goldenSections(string(text)), nil
}

// runFigures is the figures_quick workload: the pinned figures built one
// after another on one shared quick-scale runner (cells inside a figure fill
// the worker pool; cells shared between figures are simulated once), each
// compared byte for byte with its block of the committed golden. One figure
// is one operation. The seed plays no part: the inputs are the figure ids.
func runFigures(o runOpts) *result {
	res := newResult()
	plan := figurePlan(o.seconds)

	var (
		runner *oltpsim.Runner
		golden map[string]string
		setups []float64
	)
	for rep := 0; rep < o.setupReps(figureSetupReps); rep++ {
		betweenSetups()
		t0 := time.Now()
		r, g, err := figureSetup(plan)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			res.fail("setup: %v", err)
			return res
		}
		runner, golden = r, g
	}
	res.m["setup_s"] = quietDecile(setups, false)

	goBefore := readGoCounters()
	cpuBefore := cpuSeconds()
	groups := make(map[string]float64)
	var lat []float64
	var wall float64
	for _, f := range plan {
		sp := o.tr.begin("harness.BuildFigure:"+f.id, rootSpan, 0)
		t0 := time.Now()
		fig, err := oltpsim.BuildFigure(runner, f.id)
		d := time.Since(t0).Seconds()
		o.tr.end(sp)
		res.attempted++
		wall += d
		lat = append(lat, d*1e6)
		groups[f.group] += d
		if err != nil {
			res.fail("figure %s: %v", f.id, err)
			continue
		}
		if div := firstDivergence(fig.String()+"\n", golden[f.id]); div != "" {
			res.fail("figure %s differs from testdata/golden_quick.txt: %s", f.id, div)
		}
	}
	res.m["throughput_ops_s"] = float64(len(plan)) / wall
	res.setLatency(summarize(lat))
	res.setGo(goBefore, res.attempted)
	res.note("figures_quick: %d figures, %d cells simulated, %.3fs", len(plan), runner.CellsExecuted(), wall)

	if o.trace {
		for _, g := range figureGroups {
			res.m["harness.fig_"+g+"_s"] = groups[g]
		}
		// Process CPU time over wall time: how many workers the pool kept
		// busy, an upper bound on the speed-up over one worker.
		res.m["harness.workers_speedup"] = (cpuSeconds() - cpuBefore) / wall
		runLadder(o, res, ladderFigures)
	}
	return res
}
