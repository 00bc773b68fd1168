package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// DefaultThreshold is the gate BENCHMARK.json also uses for its end-to-end
// metrics: a gated metric regressing by more than 25% fails the comparison.
const DefaultThreshold = 0.25

// CompareRow is one metric's old/new delta. Delta is the fractional change
// in the direction of "worse" (positive = regressed): latency metrics count
// increases, throughput counts decreases.
type CompareRow struct {
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Delta  float64 `json:"delta"`
	// Gated marks metrics whose regression fails the comparison (throughput
	// and the latency quantiles); ungated rows are informational.
	Gated     bool `json:"gated"`
	Regressed bool `json:"regressed"`
}

// MarshalJSON renders an infinite delta (a count appearing from zero) as a
// string, since JSON has no Inf.
func (r CompareRow) MarshalJSON() ([]byte, error) {
	type alias CompareRow
	a := struct {
		alias
		Delta any `json:"delta"`
	}{alias: alias(r), Delta: r.Delta}
	if math.IsInf(r.Delta, 0) {
		a.Delta = fmtDelta(r.Delta)
	}
	return json.Marshal(a)
}

// Comparison is the verdict over two analyzed runs.
type Comparison struct {
	OldFile   string       `json:"old_file"`
	NewFile   string       `json:"new_file"`
	Threshold float64      `json:"threshold"`
	Rows      []CompareRow `json:"rows"`
	Regressed bool         `json:"regressed"`
	// Warnings flags apples-to-oranges comparisons (spec mismatch,
	// under-covered windows) without failing them.
	Warnings []string `json:"warnings,omitempty"`
}

// Compare diffs two analyzed runs. threshold <= 0 selects DefaultThreshold.
func Compare(oldRes, newRes *Result, threshold float64) *Comparison {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	c := &Comparison{
		OldFile:   oldRes.File,
		NewFile:   newRes.File,
		Threshold: threshold,
	}
	if oldRes.Spec != newRes.Spec {
		c.Warnings = append(c.Warnings,
			fmt.Sprintf("spec mismatch: old %q vs new %q", oldRes.Spec, newRes.Spec))
	}
	if oldRes.Covered < coveredWarn {
		c.Warnings = append(c.Warnings,
			fmt.Sprintf("old run covered only %.0f%% of its window", oldRes.Covered*100))
	}
	if newRes.Covered < coveredWarn {
		c.Warnings = append(c.Warnings,
			fmt.Sprintf("new run covered only %.0f%% of its window", newRes.Covered*100))
	}

	ot, nt := oldRes.Total, newRes.Total
	// Throughput: lower is worse.
	c.row("throughput", "ops/s", ot.Throughput, nt.Throughput, false, true, threshold)
	// Latency quantiles: higher is worse.
	c.row("mean", "ns", float64(ot.Mean), float64(nt.Mean), true, true, threshold)
	c.row("p50", "ns", float64(ot.P50), float64(nt.P50), true, true, threshold)
	c.row("p90", "ns", float64(ot.P90), float64(nt.P90), true, false, threshold)
	c.row("p99", "ns", float64(ot.P99), float64(nt.P99), true, true, threshold)
	c.row("p999", "ns", float64(ot.P999), float64(nt.P999), true, true, threshold)
	c.row("max", "ns", float64(ot.Max), float64(nt.Max), true, false, threshold)
	// Failure modes: informational counts (rates shift with throughput).
	c.row("errors", "ops", float64(ot.Errors), float64(nt.Errors), true, false, threshold)
	c.row("overload", "ops", float64(ot.Overload), float64(nt.Overload), true, false, threshold)
	c.row("drain", "ops", float64(ot.Drain), float64(nt.Drain), true, false, threshold)

	// Severity order: regressions first, then by how bad the delta is.
	sort.SliceStable(c.Rows, func(i, j int) bool {
		a, b := c.Rows[i], c.Rows[j]
		if a.Regressed != b.Regressed {
			return a.Regressed
		}
		return a.Delta > b.Delta
	})
	for _, r := range c.Rows {
		if r.Regressed {
			c.Regressed = true
			break
		}
	}
	return c
}

// row appends one metric. higherWorse orients the delta; gated metrics past
// the threshold regress the comparison.
func (c *Comparison) row(metric, unit string, ov, nv float64, higherWorse, gated bool, threshold float64) {
	var delta float64
	switch {
	case ov == 0 && nv == 0:
		delta = 0
	case ov == 0:
		delta = math.Inf(1) // appeared from nothing
		if !higherWorse {
			delta = math.Inf(-1)
		}
	default:
		delta = (nv - ov) / ov
	}
	if !higherWorse {
		delta = -delta // orient: positive = worse
	}
	c.Rows = append(c.Rows, CompareRow{
		Metric:    metric,
		Unit:      unit,
		Old:       ov,
		New:       nv,
		Delta:     delta,
		Gated:     gated,
		Regressed: gated && delta > threshold,
	})
}

// WriteText renders the severity-sorted delta table and verdict.
func (c *Comparison) WriteText(w io.Writer) {
	fmt.Fprintf(w, "compare: %s -> %s  (threshold %.0f%%)\n", c.OldFile, c.NewFile, c.Threshold*100)
	for _, warn := range c.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", warn)
	}
	fmt.Fprintf(w, "  %-12s %14s %14s %10s  %s\n", "metric", "old", "new", "delta", "")
	for _, r := range c.Rows {
		fmt.Fprintf(w, "  %-12s %14s %14s %10s  %s\n",
			r.Metric, fmtVal(r.Old, r.Unit), fmtVal(r.New, r.Unit), fmtDelta(r.Delta), rowTag(r))
	}
	if c.Regressed {
		fmt.Fprintf(w, "REGRESSION: at least one gated metric worsened more than %.0f%%\n", c.Threshold*100)
	} else {
		fmt.Fprintf(w, "OK: no gated metric worsened more than %.0f%%\n", c.Threshold*100)
	}
}

func rowTag(r CompareRow) string {
	switch {
	case r.Regressed:
		return "REGRESSED"
	case !r.Gated:
		return "(info)"
	}
	return ""
}

func fmtVal(v float64, unit string) string {
	switch unit {
	case "ns":
		return fmtNs(time.Duration(v))
	case "ops/s":
		return fmt.Sprintf("%.0f/s", v)
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtDelta(d float64) string {
	switch {
	case math.IsInf(d, 1):
		return "+inf"
	case math.IsInf(d, -1):
		return "-inf"
	}
	return fmt.Sprintf("%+.1f%%", d*100)
}

// WriteJSON renders the comparison as indented JSON.
func (c *Comparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Format writes the comparison in the named format ("text", "json").
func (c *Comparison) Format(w io.Writer, format string) error {
	switch format {
	case "", "text":
		c.WriteText(w)
		return nil
	case "json":
		return c.WriteJSON(w)
	}
	return fmt.Errorf("compare: unknown format %q (text, json)", format)
}
