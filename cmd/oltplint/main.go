// Command oltplint statically enforces the simulator's determinism,
// zero-allocation and lock-discipline invariants. It bundles three
// analyzers:
//
//	detrand   — no wall clocks, global RNGs, env reads, or order-leaking map
//	            iteration in determinism-critical packages
//	hotalloc  — no allocation reachable from //oltpsim:hotpath roots
//	lockcheck — //oltpsim:guarded-by fields only touched under their mutex;
//	            atomically-accessed fields never touched plainly
//
// Usage:
//
//	oltplint [packages]    whole-module analysis (default ./...): one process,
//	                       shared type universe, cross-package hotalloc facts.
//	                       This is what `make lint` runs.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"fmt"
	"os"
	"sort"

	"oltpsim/internal/lint"
	"oltpsim/internal/lint/analysis"
)

var analyzers = []*analysis.Analyzer{lint.Detrand, lint.Hotalloc, lint.Lockcheck}

func main() {
	args := os.Args[1:]

	if len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "--help") {
		printHelp()
		return
	}
	os.Exit(runStandalone(args))
}

func printHelp() {
	fmt.Println("oltplint: static invariants checker for the oltpsim tree")
	fmt.Println()
	for _, a := range analyzers {
		fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
	}
	fmt.Println("usage: oltplint [package patterns]   (default ./...)")
}

// runStandalone analyzes the whole module in one process.
func runStandalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "oltplint:", err)
		return 1
	}
	pkgs, fset, err := analysis.Load(dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oltplint:", err)
		return 1
	}
	facts := analysis.NewFactStore()
	var all []analysis.PkgDiagnostic
	for _, pkg := range pkgs {
		ds, err := analysis.RunPackage(analyzers, fset, pkg.Files, pkg.Types, pkg.Info, facts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oltplint: %s: %v\n", pkg.PkgPath, err)
			return 1
		}
		all = append(all, ds...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		pi, pj := fset.Position(all[i].Pos), fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	for _, d := range all {
		fmt.Printf("%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer.Name, d.Message)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "oltplint: %d finding(s)\n", len(all))
		return 2
	}
	return 0
}
