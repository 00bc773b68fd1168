package main

// Every size the benchmark uses is pinned here. Nothing is calibrated at run
// time: a run's work depends only on these constants, --seconds and --seed.

// calibIters is the length of the pure-CPU calibration loop (about 20 ms).
const calibIters = 1 << 24

// pinnedFigure is one figure of the figures_quick list with its reference
// cost: seconds to build it at quick scale, after the figures before it, with
// two workers on the 2-CPU reference box. figurePlan takes the longest prefix
// that fits --seconds, so the list is ordered by what a short run must cover
// first: one figure per paper section, then the expensive ones.
type pinnedFigure struct {
	id         string
	group      string
	refSeconds float64
}

// Only figures that simulate cells of their own are listed: a figure whose
// cells an earlier one already ran (2 after 1, 9 after 8, 18 after 16)
// costs microseconds and would only dilute the per-figure latency sample.
var figureList = []pinnedFigure{
	{"3", "micro", 1.60},
	{"8", "tpcb", 1.70},
	{"13", "ablation", 0.95},
	{"16", "mt", 1.05},
	{"26", "appendix", 0.85},
	{"1", "micro", 1.00},
	{"15", "ablation", 0.65},
	{"22", "appendix", 1.10},
	{"27", "appendix", 0.65},
	{"7", "micro", 1.65},
	{"4", "micro", 0.75},
	{"10", "tpcc", 4.50},
}

// figureGroups are the harness.fig_<group>_s per-layer metrics.
var figureGroups = []string{"micro", "tpcb", "tpcc", "ablation", "mt", "appendix"}

// Set-up repetitions per untraced run; setup_s is their quiet decile (see
// quietDecile). Cheap set-ups repeat more often, because a
// microsecond-scale timing needs more samples to sit still. A serving
// workload starts a fresh server for each repetition and measures an equal
// share of its sub-windows on it, so every sub-window sees a server of the
// same age (TPC-C's tables grow as it runs) and the set-ups are spread over
// the run.
const (
	figureSetupReps = 21
	simSetupReps    = 3
	serveSetupReps  = 5
)

// Simulation workloads: the table sizes. The rounds over the segments inside
// the measured window, and the transactions of each segment's untimed warm-up
// and exact-count check window, are in sim.go beside the segments.
const (
	microRows = 1 << 20
	olapRows  = 1 << 18
)

// Serving workloads: sub-windows per run (each its own driver run; the
// reported numbers are quiet deciles over them), the warm-up inside each,
// connection count, requests in flight per closed-loop connection, the
// percentile the tail is read at in every sub-window, and the open-loop
// rates.
const (
	serveWindows   = 25
	serveWarmup    = 0.1 // seconds of each sub-window
	serveConns     = 2
	serveShards    = 2
	serveTail      = 0.99
	serveMicroRows = 200_000
	lightPipeline  = 16     // serve_light: in flight per connection
	openRate       = 8000.0 // ops/s offered by serve_open
	sloLimitMs     = 5.0    // serve_open: answered OK within this of the schedule
	rateLimitMs    = 10.0   // open-loop ladder: 99% within this of the schedule
	clusterMPRate  = 20     // percent of cluster_2pc calls issued as 2PC
)

// openSteps are the fixed rates of the traced open-loop ladder.
var openSteps = []float64{4000, 8000, 16000, 24000}

// maxProblems caps the failed checks printed (all of them are counted).
const maxProblems = 20

// rootSpan is the index of the workload's own span, the first one recorded;
// tracedRequests is how many requests per segment or client record spans.
const (
	rootSpan       = 0
	tracedRequests = 200
)
