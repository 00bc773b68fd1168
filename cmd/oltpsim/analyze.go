// Offline request-log analysis subcommands:
//
//	oltpsim analyze [-segments 8] [-format text|json] run.olog
//	oltpsim compare [-threshold 0.25] [-format text|json] old.olog new.olog
//
// analyze recomputes exact coordinated-omission-corrected statistics from a
// request log recorded with oltpdrive -reqlog; compare diffs two runs and
// exits 1 on a REGRESSION verdict (so CI can gate on it), 2 on usage or
// decode errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"oltpsim/internal/analyze"
)

func runAnalyze(args []string) int {
	fs := flag.NewFlagSet("oltpsim analyze", flag.ExitOnError)
	segments := fs.Int("segments", 8, "fixed-time segments to cut the covered window into")
	format := fs.String("format", "text", "output format: text | json")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: oltpsim analyze [flags] run.olog")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	res, err := analyze.AnalyzeFile(fs.Arg(0), analyze.Options{Segments: *segments})
	if err != nil {
		fmt.Fprintf(os.Stderr, "oltpsim analyze: %v\n", err)
		return 2
	}
	if err := res.Format(os.Stdout, *format); err != nil {
		fmt.Fprintf(os.Stderr, "oltpsim analyze: %v\n", err)
		return 2
	}
	return 0
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("oltpsim compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", analyze.DefaultThreshold,
		"fractional worsening of a gated metric that fails the comparison")
	format := fs.String("format", "text", "output format: text | json")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: oltpsim compare [flags] old.olog new.olog")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	// The verdict reads totals only, so the segment count is left at its
	// default.
	var opt analyze.Options
	oldRes, err := analyze.AnalyzeFile(fs.Arg(0), opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oltpsim compare: %v\n", err)
		return 2
	}
	newRes, err := analyze.AnalyzeFile(fs.Arg(1), opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oltpsim compare: %v\n", err)
		return 2
	}
	cmp := analyze.Compare(oldRes, newRes, *threshold)
	if err := cmp.Format(os.Stdout, *format); err != nil {
		fmt.Fprintf(os.Stderr, "oltpsim compare: %v\n", err)
		return 2
	}
	if cmp.Regressed {
		return 1
	}
	return 0
}
