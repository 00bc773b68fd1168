package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is the outcome of comparing one (workload, end-to-end metric)
// pairing between a baseline set of runs and a candidate set.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWithin     verdict = "within bound"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	oldMedian, newMedian float64
	oldSpread, newSpread float64
	worse                float64 // share of the old median by which the new one is worse (negative = better)
	verdict              verdict
}

// judge compares two samples of one metric against its bound. The candidate
// is worse when its median is worse than the baseline's by more than the
// bound. Where either side's own run-to-run spread is wider than the bound
// the pairing is unresolved — not unchanged — unless every candidate run
// reads better than every baseline run. It is better when the medians differ
// by more than the baseline's spread in the good direction.
func judge(old, new []float64, higherIsBetter bool, bound float64) comparison {
	c := comparison{
		oldMedian: median(old), newMedian: median(new),
		oldSpread: spread(old), newSpread: spread(new),
	}
	if c.oldMedian != 0 {
		c.worse = (c.newMedian - c.oldMedian) / c.oldMedian
		if higherIsBetter {
			c.worse = -c.worse
		}
	}
	switch {
	case c.oldSpread > bound || c.newSpread > bound:
		c.verdict = verdictUnresolved
		if allBetter(old, new, higherIsBetter) {
			c.verdict = verdictBetter
		}
	case c.worse > bound:
		c.verdict = verdictWorse
	case c.worse < 0 && -c.worse > c.oldSpread:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictWithin
	}
	return c
}

// allBetter reports whether every new value is better than every old one.
func allBetter(old, new []float64, higherIsBetter bool) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, n := range new {
		for _, o := range old {
			if (higherIsBetter && n <= o) || (!higherIsBetter && n >= o) {
				return false
			}
		}
	}
	return true
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload's untraced runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if x, ok := r.Metrics[metric]; ok {
				v = append(v, x)
			}
		}
	}
	return v
}

// ran reports whether the file holds an untraced run of the workload.
func (f *resultsFile) ran(workload string) bool {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			return true
		}
	}
	return false
}

// runCompare prints one block per workload, one row per end-to-end metric,
// judged against the bounds of BENCHMARK.json. It exits 1 when any pairing is
// worse, and 0 otherwise (unresolved pairings are reported, not failed).
func runCompare(bf *benchFile, oldPath, newPath string) int {
	oldF, err := readResults(oldPath)
	if err != nil {
		fatal(err)
	}
	newF, err := readResults(newPath)
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, w := range allWorkloads(bf) {
		if !oldF.ran(w.Name) && !newF.ran(w.Name) {
			continue // an ungated workload neither side ran
		}
		fmt.Printf("== %s\n", w.Name)
		for _, d := range bf.EndToEnd {
			old, new := oldF.values(w.Name, d.Name), newF.values(w.Name, d.Name)
			if len(old) == 0 || len(new) == 0 {
				fmt.Printf("   %-18s no runs on one side\n", d.Name)
				continue
			}
			c := judge(old, new, d.Better == "higher", d.Bound)
			if c.verdict == verdictWorse {
				status = 1
			}
			fmt.Printf("   %-18s %12.6g -> %12.6g %-4s worse by %+6.1f%%  spread %4.1f%% / %4.1f%%  bound %2.0f%%  n=%d/%d  %s\n",
				d.Name, c.oldMedian, c.newMedian, d.Unit, c.worse*100,
				c.oldSpread*100, c.newSpread*100, d.Bound*100, len(old), len(new), c.verdict)
		}
	}
	return status
}
