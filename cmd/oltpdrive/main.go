// Command oltpdrive is the warp-style load driver for oltpd. A run is three
// independent choices, and every combination works:
//
//   - the target: one oltpd (-addr), or a cluster (-addrs lists every node,
//     comma-separated in node-ID order, -cluster gives the shard map shared
//     with the servers, and -mp makes that percentage of transactional calls
//     two-branch 2PC transactions spanning distinct partitions);
//   - the arrival process: closed loop (the default), or open loop at -rate
//     ops/s with fixed or -poisson spacing, optionally shaped by -profile and
//     compressed by -time-scale;
//   - the observers: the report (throughput and p50/p90/p99/p999 over a
//     measurement window that starts after a warmup), -timeline and -reqlog.
//
// Usage:
//
//	oltpdrive -addr 127.0.0.1:7890 -workload hybrid -warehouses 2 \
//	          -conns 8 -warmup 1s -duration 5s
//	oltpdrive -addr 127.0.0.1:7890 -workload micro -rows 100000 \
//	          -rate 20000 -poisson        # open loop, 20k ops/s offered
//	oltpdrive -addrs 127.0.0.1:7890,127.0.0.1:7990 -cluster range:2x4 \
//	          -workload micro -rows 100000 -mp 20
//
// A cluster connection keeps one routed call outstanding, so on a cluster
// target concurrency is -conns and -pipeline caps nothing.
//
// -rate, -warmup and -duration are simulated time, and -time-scale S
// compresses them onto the wall clock: the run offers S×rate wall ops/s for
// duration/S wall seconds, so a shaped load story — a compressed day or a
// flash crowd — plays in seconds. A scale other than 1 needs -rate, and so
// does -poisson. -timeline writes one row per -agg-interval of simulated time
// (default duration/40): throughput, errors, shed, p50/p99, and — with
// -scrape — per-shard IPC and stall mix, as CSV (on stdout for "-"). A flash
// crowd against a 2-node cluster at 20% 2PC, captured to a request log:
//
//	oltpdrive -addrs 127.0.0.1:7890,127.0.0.1:7990 -cluster range:2x4 -mp 20 \
//	          -workload micro -rows 100000 -rw \
//	          -rate 5000 -poisson -profile flash:at=0.4,dur=0.1,x=8 \
//	          -time-scale 60 -duration 1h -timeline timeline.csv \
//	          -reqlog run.olog
//
// -reqlog run.olog persists one compact binary record per request for
// offline re-analysis with `oltpsim analyze` / `oltpsim compare`.
//
// The workload flags must match the serving oltpd; the Hello exchange
// verifies this and the driver refuses to run against a mismatched server.
// Exits 2 on a flag combination it would otherwise ignore or garble, and
// nonzero if the run completes zero operations.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/driver"
	"oltpsim/internal/workload"
)

func main() {
	fs := flag.NewFlagSet("oltpdrive", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7890", "single-node target: oltpd address")
		conns    = fs.Int("conns", 4, "concurrent client connections")
		rate     = fs.Float64("rate", 0, "offered load in simulated ops/s across all connections (0 = closed loop)")
		poisson  = fs.Bool("poisson", false, "open loop: Poisson (exponential) inter-arrival times")
		pipeline = fs.Int("pipeline", 0, "max in-flight requests per connection (0 = 1 closed / 128 open)")
		warmup   = fs.Duration("warmup", time.Second, "warmup window in simulated time (not measured)")
		duration = fs.Duration("duration", 3*time.Second, "measurement window in simulated time")
		seed     = fs.Uint64("seed", 42, "generator seed")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		reqlog   = fs.String("reqlog", "", "write a binary per-request log (olog) here for offline `oltpsim analyze`/`compare`")
		addrs    = fs.String("addrs", "", "cluster target: comma-separated node addresses in node-ID order")
		cmap     = fs.String("cluster", "", "cluster target: shard map shared with the servers, e.g. range:2x4")
		mp       = fs.Int("mp", 0, "cluster target: percentage of calls issued as multi-partition (2PC) transactions")

		profSpec  = fs.String("profile", "", "open loop: load profile shaping the offered rate (steady|diurnal|flash[:k=v,...])")
		timeScale = fs.Float64("time-scale", 1, "time-compression factor: simulated seconds per wall second (needs -rate unless 1)")
		aggInt    = fs.Duration("agg-interval", 0, "timeline: simulated width of one row (default duration/40)")
		timeline  = fs.String("timeline", "", `write the per-interval timeline here as CSV ("-" = stdout)`)
		scrapeURL = fs.String("scrape", "", "timeline: oltpd metrics URL scraped per interval for IPC and stall-mix columns")
	)
	spec := workload.SpecFlags(fs)
	fs.Parse(os.Args[1:])

	if err := checkObservers(*timeline, *scrapeURL, *aggInt, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "oltpdrive:", err)
		os.Exit(2)
	}
	var prof driver.Profile
	if *profSpec != "" {
		p, perr := driver.ParseProfile(*profSpec)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(2)
		}
		prof = p
	}

	cfg := driver.Config{
		Addr:      *addr,
		MPRate:    *mp,
		Spec:      *spec,
		Conns:     *conns,
		Rate:      *rate,
		Poisson:   *poisson,
		Pipeline:  *pipeline,
		Warmup:    *warmup,
		Measure:   *duration,
		Seed:      *seed,
		Profile:   prof,
		ReqLog:    *reqlog,
		TimeScale: *timeScale,
	}
	if *addrs != "" || *cmap != "" {
		if *addrs == "" || *cmap == "" {
			fmt.Fprintln(os.Stderr, "oltpdrive: a cluster target needs both -addrs and -cluster")
			os.Exit(2)
		}
		m, perr := cluster.Parse(*cmap)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(2)
		}
		cfg.Addrs, cfg.Map = strings.Split(*addrs, ","), m
	}

	// The timeline file is opened before the run, so a bad path fails fast.
	var tl *os.File
	if *timeline != "" {
		cfg.AggInterval = *aggInt
		if cfg.AggInterval <= 0 {
			cfg.AggInterval = *duration / 40
		}
		if *scrapeURL != "" {
			cfg.Scrape = driver.MetricsScraper(*scrapeURL)
		}
		tl = os.Stdout
		if *timeline != "-" {
			var err error
			if tl, err = os.Create(*timeline); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	rep, err := driver.Run(cfg)
	if err == nil && tl != nil {
		if err = driver.WriteTimelineCSV(tl, rep.Timeline); tl != os.Stdout {
			if cerr := tl.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err == nil && *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Print(rep.String())
	}
	if rep.Ops == 0 {
		fmt.Fprintln(os.Stderr, "oltpdrive: zero operations completed in the measurement window")
		os.Exit(1)
	}
}

// checkObservers refuses the observer flag combinations a run would
// otherwise drop or garble: -scrape and -agg-interval only shape the
// timeline, and the timeline on stdout cannot share it with the JSON report.
func checkObservers(timeline, scrape string, aggInterval time.Duration, jsonOut bool) error {
	switch {
	case timeline == "" && scrape != "":
		return errors.New("-scrape feeds the timeline's IPC and stall columns; it needs -timeline")
	case timeline == "" && aggInterval != 0:
		return errors.New("-agg-interval sets the timeline's row width; it needs -timeline")
	case timeline == "-" && jsonOut:
		return errors.New("-timeline - and -json would both write to stdout; give -timeline a file")
	}
	return nil
}
