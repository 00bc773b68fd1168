// Command oltpsim reproduces the tables and figures of "Micro-architectural
// Analysis of In-memory OLTP" (SIGMOD'16) on the simulated machine.
//
// Usage:
//
//	oltpsim -list
//	oltpsim -figure 2
//	oltpsim -figure 1,2,3 -scale quick -v
//	oltpsim -figure all -scale default -markdown > results.md
//	oltpsim -figure all -scale quick -workers 8
//	oltpsim -figure numa -scale quick
//	oltpsim -figure htap -scale quick
//	oltpsim analyze run.olog
//	oltpsim compare old.olog new.olog
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"oltpsim/internal/harness"
)

func main() {
	// Subcommands (offline request-log analysis) dispatch before the
	// figure-reproduction flag set.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "analyze":
			os.Exit(runAnalyze(os.Args[2:]))
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		}
	}
	var (
		figures  = flag.String("figure", "", "figure ID(s) to reproduce, comma-separated, or 'all'")
		scale    = flag.String("scale", "default", "scale profile: quick | default | full")
		workers  = flag.Int("workers", runtime.NumCPU(), "experiment cells to simulate concurrently (1 = serial)")
		verbose  = flag.Bool("v", false, "print each executed experiment cell")
		markdown = flag.Bool("markdown", false, "emit markdown tables instead of text")
		list     = flag.Bool("list", false, "list the available figures")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *list {
		for _, fam := range harness.Families {
			fmt.Println(fam.Heading)
			for _, fig := range fam.Figures {
				fmt.Printf("  %s\n", fig.ID)
			}
		}
		return
	}
	if *figures == "" {
		flag.Usage()
		os.Exit(2)
	}

	sc, err := harness.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runner := harness.NewRunner(sc)
	runner.Verbose = *verbose
	runner.Workers = *workers

	// A family keyword (see -list) expands to its figures; "all" is the paper
	// set, whose quick-scale output is locked by the committed goldens, and
	// the live families (serve, scenario, islands) are wall-clock, never
	// golden-locked. Keywords and explicit IDs compose: -figure
	// all,numa,htap,serve runs everything. Unknown IDs are rejected here,
	// before any cell simulates.
	ids, err := harness.ExpandFigureIDs(*figures)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (use -list)\n", err)
		os.Exit(2)
	}

	// Profiling starts only after flag/figure/scale validation so no error
	// path can os.Exit past the deferred profile writes below.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oltpsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "oltpsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "oltpsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "oltpsim: -memprofile: %v\n", err)
			}
		}()
	}

	// All requested figures build concurrently against the shared worker
	// pool; cells shared between figures are simulated once, and the output
	// below is printed in request order, identical to a -workers 1 run.
	figs, err := harness.BuildFigures(runner, ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (use -list)\n", err)
		os.Exit(2)
	}
	for _, fig := range figs {
		if *markdown {
			fmt.Println(fig.Markdown())
		} else {
			fmt.Println(fig.String())
		}
	}
	if *verbose {
		effective := *workers
		if effective <= 0 {
			effective = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "(%d experiment cells simulated, %d workers)\n",
			runner.CellsExecuted(), effective)
	}
}
