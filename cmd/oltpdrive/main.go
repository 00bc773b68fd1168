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
//     measurement window that starts after a warmup), -timeline, -reqlog and
//     -autoterm.
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
// A scenario replays a shaped load story — a compressed day, a flash crowd,
// a batch window — through the open-loop sender: -profile picks the shape,
// -rate the offered load at multiplier 1 in simulated ops/s, and -time-scale
// compresses simulated time onto the wall clock (-sim-duration simulated
// seconds run in sim-duration/time-scale wall seconds). A per-interval
// timeline (throughput, errors, shed, p50/p99, and — with -scrape —
// per-shard IPC and stall mix) goes to -timeline as CSV, or JSON when the
// path ends in .json. A flash crowd against a 2-node cluster at 20% 2PC,
// captured to a request log:
//
//	oltpdrive -addrs 127.0.0.1:7890,127.0.0.1:7990 -cluster range:2x4 -mp 20 \
//	          -workload micro -rows 100000 -rw \
//	          -rate 5000 -poisson -profile flash:at=0.4,dur=0.1,x=8 \
//	          -time-scale 60 -sim-duration 1h -timeline timeline.csv \
//	          -reqlog run.olog
//
// Any of the scenario flags (-timeline, -time-scale, -sim-duration,
// -sim-warmup, -agg-interval) selects the simulated clock, under which
// -warmup and -duration are ignored; it needs -rate.
//
// -reqlog run.olog persists one compact binary record per request for
// offline re-analysis with `oltpsim analyze` / `oltpsim compare`; -autoterm
// ends the measurement window early once throughput is stable (rolling
// coefficient of variation under -autoterm-pct across -autoterm-window).
//
// The workload flags must match the serving oltpd; the Hello exchange
// verifies this and the driver refuses to run against a mismatched server.
// Exits nonzero if the run completes zero operations.
package main

import (
	"encoding/json"
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
		rate     = fs.Float64("rate", 0, "offered load in ops/s across all connections (0 = closed loop)")
		poisson  = fs.Bool("poisson", false, "open loop: Poisson (exponential) inter-arrival times")
		pipeline = fs.Int("pipeline", 0, "max in-flight requests per connection (0 = 1 closed / 128 open)")
		warmup   = fs.Duration("warmup", time.Second, "warmup window (not measured)")
		duration = fs.Duration("duration", 3*time.Second, "measurement window")
		seed     = fs.Uint64("seed", 42, "generator seed")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		reqlog   = fs.String("reqlog", "", "write a binary per-request log (olog) here for offline `oltpsim analyze`/`compare`")
		autoterm = fs.Bool("autoterm", false, "stop the measurement window early once throughput is stable")
		atWindow = fs.Duration("autoterm-window", 2*time.Second, "autoterm: rolling stability window")
		atPct    = fs.Float64("autoterm-pct", 7.5, "autoterm: coefficient-of-variation threshold in percent")
		addrs    = fs.String("addrs", "", "cluster target: comma-separated node addresses in node-ID order")
		cmap     = fs.String("cluster", "", "cluster target: shard map shared with the servers, e.g. range:2x4")
		mp       = fs.Int("mp", 0, "cluster target: percentage of calls issued as multi-partition (2PC) transactions")

		profSpec  = fs.String("profile", "", "open loop: load profile shaping the offered rate (steady|diurnal|flash|batch|ramp|step[:k=v,...])")
		timeScale = fs.Float64("time-scale", 1, "scenario mode: time-compression factor (simulated seconds per wall second)")
		simDur    = fs.Duration("sim-duration", 0, "scenario mode: simulated scenario length (default 1m)")
		simWarm   = fs.Duration("sim-warmup", 0, "scenario mode: simulated warmup (default sim-duration/20)")
		aggInt    = fs.Duration("agg-interval", 0, "scenario mode: simulated timeline aggregation interval (default sim-duration/40)")
		timeline  = fs.String("timeline", "", `scenario mode: write the per-interval timeline here (.json = JSON, else CSV, "-" = stdout CSV)`)
		scrapeURL = fs.String("scrape", "", "scenario mode: oltpd metrics URL scraped per interval for IPC and stall-mix columns")
	)
	spec := workload.SpecFlags(fs)
	fs.Parse(os.Args[1:])

	var prof driver.Profile
	if *profSpec != "" {
		p, perr := driver.ParseProfile(*profSpec)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(2)
		}
		prof = p
	}
	scenario := *timeline != "" || *timeScale != 1 || *simDur != 0 || *simWarm != 0 || *aggInt != 0

	cfg := driver.Config{
		Addr:           *addr,
		MPRate:         *mp,
		Spec:           *spec,
		Conns:          *conns,
		Rate:           *rate,
		Poisson:        *poisson,
		Pipeline:       *pipeline,
		Warmup:         *warmup,
		Measure:        *duration,
		Seed:           *seed,
		Profile:        prof,
		ReqLog:         *reqlog,
		AutoTerm:       *autoterm,
		AutoTermWindow: *atWindow,
		AutoTermPct:    *atPct,
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

	var rep *driver.Report
	var err error
	if scenario {
		if *autoterm {
			fmt.Fprintln(os.Stderr, "oltpdrive: -autoterm makes no sense under a shaped scenario (the profile varies throughput by design)")
			os.Exit(2)
		}
		sc := driver.ScenarioConfig{
			Driver:      cfg,
			TimeScale:   *timeScale,
			SimDuration: *simDur,
			SimWarmup:   *simWarm,
			AggInterval: *aggInt,
		}
		if *scrapeURL != "" {
			sc.Scrape = driver.MetricsScraper(*scrapeURL)
		}
		var tl *os.File
		switch {
		case *timeline == "" || *timeline == "-":
			sc.CSV = os.Stdout
		case strings.HasSuffix(*timeline, ".json"):
			tl, err = os.Create(*timeline)
			sc.JSON = tl
		default:
			tl, err = os.Create(*timeline)
			sc.CSV = tl
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep, _, err = driver.RunScenario(sc)
		if tl != nil {
			if cerr := tl.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	} else {
		rep, err = driver.Run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Spec       string
			Shards     int
			Conns      int
			RateOps    float64
			Ops        uint64
			Errors     uint64
			Rejected   uint64
			Shed       uint64
			MultiPart  uint64
			Covered    float64
			AutoTerm   bool
			Throughput float64
			MeanNs     int64
			P50Ns      int64
			P90Ns      int64
			P99Ns      int64
			P999Ns     int64
			MaxNs      int64
		}{
			Spec: rep.Spec, Shards: rep.Shards, Conns: rep.Conns, RateOps: rep.Rate,
			Ops: rep.Ops, Errors: rep.Errors, Rejected: rep.Rejected, Shed: rep.Shed,
			MultiPart:  rep.MultiPart,
			Covered:    rep.Covered,
			AutoTerm:   rep.AutoTerm,
			Throughput: rep.Throughput,
			MeanNs:     rep.Mean.Nanoseconds(), P50Ns: rep.P50.Nanoseconds(),
			P90Ns: rep.P90.Nanoseconds(), P99Ns: rep.P99.Nanoseconds(),
			P999Ns: rep.P999.Nanoseconds(), MaxNs: rep.Max.Nanoseconds(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Print(rep.String())
	}
	if rep.Ops == 0 {
		fmt.Fprintln(os.Stderr, "oltpdrive: zero operations completed in the measurement window")
		os.Exit(1)
	}
}
