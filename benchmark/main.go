// Command benchmark is the repository's performance instrument: seven named
// workloads over the two paths users run (figure reproduction and the oltpd
// request trip), the end-to-end metrics of BENCHMARK.json, and a per-layer
// ladder measured from the outside, around each layer's public functions.
// It claims no gain; it is what later claims are measured with. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchFile is BENCHMARK.json: the names, units and bounds every output and
// every comparison is checked against.
type benchFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchFile() (*benchFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runOpts is what one workload run is given.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	tr      *tracer // nil unless trace
	outDir  string
}

// setupReps is how often a workload sets up in one run (setup_s is the
// quiet decile of the repetitions); traced and smoke runs set up once.
func (o runOpts) setupReps(n int) int {
	if o.trace || o.smoke {
		return 1
	}
	return n
}

// oneProcessor confines the simulation and serving workloads to one
// processor (GOMAXPROCS 1): server, shard workers and load generator take
// turns on it, and the collector runs between them instead of beside them.
// With two, a request's hops cross processors, and what that costs is the
// host's affair: both serving workloads complete more requests on one
// processor than on two (about 10% on the reference box). On one, what is
// measured is the processor time a request costs, which is what a change to
// the program changes, and a neighbour on the second CPU has nothing to take.
// Real contention between shards is therefore not measured. figures_quick
// keeps its two workers.
func oneProcessor() { runtime.GOMAXPROCS(1) }

// betweenSetups runs after a set-up repetition's result has been dropped and
// before the next one is timed: collecting the dropped one now keeps the
// next timing, and the process's peak memory, from depending on when the
// collector happens to run.
func betweenSetups() { runtime.GC() }

// result is what one workload run produced.
type result struct {
	attempted int64
	failed    int64
	problems  []string
	m         map[string]float64
	notes     []string
}

func newResult() *result { return &result{m: make(map[string]float64)} }

// fail records a failed check; it counts as one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setLatency fills the two latency metrics from samples in microseconds.
func (r *result) setLatency(st latencyStats) {
	r.m["latency_p50_us"] = st.p50
	r.m["latency_tail_us"] = st.tail
	at := fmt.Sprintf("p%g", st.tailAt*100)
	if st.tailAt == 1 {
		at = "max (fewer than ten samples beyond any ladder percentile)"
	}
	r.note("latency: n=%d samples, tail read at %s", st.n, at)
}

// ungated are the workloads the program runs that BENCHMARK.json does not
// list, so no later change is accepted or refused on them: the all-workloads
// mode, -smoke and -compare cover them after the listed ones. Each is here
// because its numbers cannot be made to repeat on a shared 2-CPU host within
// the time the contract gives all runs together (README, "Gated and ungated").
var ungated = []workloadDef{
	{"figures_quick", "the path figure users run: pinned quick-scale figures, golden-checked; a fixed job timed once, so a slow spell of the host cannot be told from a slow program"},
	{"serve_open", "open-loop Poisson writes at a fixed 8000 ops/s, timed from the scheduled send: mostly idle, so the trip is the host's wake-up latency"},
	{"cluster_2pc", "two oltpd nodes, TPC-B with 20% two-branch 2PC: synchronous coordinators, so every hop waits for a processor to wake"},
}

// allWorkloads is the listed workloads followed by the ungated ones.
func allWorkloads(bf *benchFile) []workloadDef {
	return append(append([]workloadDef(nil), bf.Workloads...), ungated...)
}

var workloadFuncs = map[string]func(runOpts) *result{
	"figures_quick": runFigures,
	"sim_oltp":      func(o runOpts) *result { return runSim(o, simOLTP) },
	"sim_scan":      func(o runOpts) *result { return runSim(o, simScan) },
	"serve_light":   func(o runOpts) *result { return runServe(o, serveLight) },
	"serve_heavy":   func(o runOpts) *result { return runServe(o, serveHeavy) },
	"serve_open":    func(o runOpts) *result { return runServe(o, serveOpen) },
	"cluster_2pc":   func(o runOpts) *result { return runServe(o, cluster2PC) },
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all seven, each in a fresh child process)")
		seed     = flag.Uint64("seed", 1, "seed for every input generator")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and a span file under benchmark/out/")
		smoke    = flag.Bool("smoke", false, "every workload, both passes, at about 1/20 size; asserts names and checks only")
		runs     = flag.Int("runs", 1, "all-workloads mode: repetitions, each with the next seed, alternating order")
		out      = flag.String("out", "", "all-workloads mode: results file (default benchmark/out/results.json)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	flag.Parse()
	bf, err := loadBenchFile()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(runCompare(bf, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	if *smoke {
		*seconds = max(1, float64(bf.RunSeconds)/20)
	}
	outDir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "results.json")
		}
		os.Exit(runAll(bf, *seed, *seconds, *trace == 1 || *smoke, *smoke, *runs, *out))
	}
	fn, ok := workloadFuncs[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: outDir}
	if opts.trace {
		opts.tr = newTracer()
	}

	before := calibrate()
	root := opts.tr.begin("workload:"+*workload, -1, 0)
	res := fn(opts)
	opts.tr.end(root)
	after := calibrate()
	fp := fingerprint(*seed) // after the run: GOMAXPROCS as the workload set it
	noisy := after > before*1.1 || before > after*1.1
	res.m["bench.calib_ns"] = min(before, after)
	res.m["bench.noisy"] = 0
	if noisy {
		res.m["bench.noisy"] = 1
	}
	res.m["peak_rss_mb"] = peakRSSMB()
	if opts.tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := opts.tr.write(path); err != nil {
			res.fail("writing spans: %v", err)
		}
		res.note("spans: %d written to %s", len(opts.tr.spans), path)
	}

	fp["calib_before_ns"], fp["calib_after_ns"], fp["noisy"] = before, after, noisy
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	fmt.Printf("model unvalidated: the repository holds no real-hardware reference, so no accuracy figure is given\n")
	for _, n := range res.notes {
		fmt.Printf("note %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Printf("FAILED CHECK %s\n", p)
	}
	defs := bf.EndToEnd
	if opts.trace {
		defs = bf.PerLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := res.m[d.Name]
		if !ok && !opts.trace {
			fatal(fmt.Errorf("workload %s produced no %s", *workload, d.Name))
		}
		// A per-layer metric a workload does not produce reads 0: that
		// layer is not on the workload's path.
		fmt.Printf("metric %-34s %16.6g %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if res.attempted < 1 {
		res.fail("no operation attempted")
	}
	res.attempted = max(res.attempted, res.failed) // a failed check is an attempt too
	final, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", final)
	if res.failed != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// fingerprint describes the machine and build a result came from.
func fingerprint(seed uint64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       seed,
	}
}

// commit reads HEAD without running git; a checkout that is not a git
// repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (the fastest of three passes), in
// nanoseconds. Taken before and after a workload, a disagreement of more than
// 10% marks the run noisy; across boxes it is the normalising constant.
func calibrate() float64 {
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < calibIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := float64(time.Since(t0).Nanoseconds())
		calibSink += x
		if pass == 0 || d < best {
			best = d
		}
	}
	return best
}

// peakRSSMB is this process's peak resident set (Linux reports kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// goCounters snapshots the allocator and collector counters the go.* metrics
// are deltas of.
type goCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// setGo fills go.mallocs_per_op and go.gc_pause_ms from a window's deltas.
func (r *result) setGo(before goCounters, ops int64) {
	after := readGoCounters()
	if ops > 0 {
		r.m["go.mallocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
	}
	r.m["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}

// runRecord is one run as stored in a results file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Noisy     bool               `json:"noisy"`
	Metrics   map[string]float64 `json:"metrics"`
}

type resultsFile struct {
	Fingerprint map[string]any `json:"fingerprint"`
	Seconds     float64        `json:"seconds"`
	Runs        []runRecord    `json:"runs"`
}

// runAll runs every workload, listed and ungated, one fresh child process at a
// time, prints one table and stores the runs for -compare. Odd repetitions run
// the workloads in reverse order, so order effects fall on both ends alike.
func runAll(bf *benchFile, seed uint64, seconds float64, trace, smoke bool, reps int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	file := resultsFile{Fingerprint: fingerprint(seed), Seconds: seconds}
	status := 0
	for rep := 0; rep < reps; rep++ {
		order := allWorkloads(bf)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			passes := []int{0}
			if trace {
				passes = []int{0, 1}
			}
			for _, pass := range passes {
				rec, err := runChild(self, w.Name, seed+uint64(rep), seconds, pass, smoke)
				if err != nil {
					fmt.Printf("%-14s trace=%d: %v\n", w.Name, pass, err)
					status = 1
					continue
				}
				if !rec.Correct {
					status = 1
				}
				file.Runs = append(file.Runs, *rec)
				printRecord(bf, rec)
				if smoke {
					status |= smokeCheck(bf, rec)
				}
			}
		}
	}
	data, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("results written to %s\n", out)
	return status
}

// runChild runs one workload in a child process of this binary and parses the
// result line it prints last.
func runChild(self, workload string, seed uint64, seconds float64, trace int, smoke bool) (*runRecord, error) {
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
	if smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output() // waits for the child to end
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var last struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return nil, fmt.Errorf("no result line (%v): %v", runErr, err)
	}
	rec := &runRecord{Workload: workload, Seed: seed, Trace: trace, Correct: last.Correct,
		Attempted: last.Attempted, Failed: last.Failed, Metrics: make(map[string]float64)}
	for name, v := range last.Metrics {
		rec.Metrics[name] = v.Value
	}
	for _, line := range lines {
		if fp, ok := strings.CutPrefix(line, "fingerprint "); ok {
			var m map[string]any
			if json.Unmarshal([]byte(fp), &m) == nil {
				rec.Noisy, _ = m["noisy"].(bool)
			}
		}
		if strings.HasPrefix(line, "FAILED CHECK ") {
			fmt.Println(workload+":", line)
		}
	}
	return rec, nil
}

func printRecord(bf *benchFile, rec *runRecord) {
	defs := bf.EndToEnd
	if rec.Trace == 1 {
		defs = bf.PerLayer
	}
	flag := ""
	for _, w := range ungated {
		if w.Name == rec.Workload {
			flag = "  (ungated)"
		}
	}
	if rec.Noisy {
		flag += "  NOISY (calibration loop moved by more than 10%)"
	}
	fmt.Printf("== %s seed=%d trace=%d correct=%v attempted=%d failed=%d failed_frac=%.6f%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed,
		failedFrac(rec.Failed, rec.Attempted), flag)
	for _, d := range defs {
		fmt.Printf("   %-34s %16.6g %s\n", d.Name, rec.Metrics[d.Name], d.Unit)
	}
}

// smokeCheck asserts only that every named metric is present and every check
// passed; it makes no timing assertion.
func smokeCheck(bf *benchFile, rec *runRecord) int {
	defs := bf.EndToEnd
	if rec.Trace == 1 {
		defs = bf.PerLayer
	}
	status := 0
	for _, d := range defs {
		if _, ok := rec.Metrics[d.Name]; !ok {
			fmt.Printf("SMOKE: %s trace=%d: metric %s missing\n", rec.Workload, rec.Trace, d.Name)
			status = 1
		}
	}
	if !rec.Correct {
		fmt.Printf("SMOKE: %s trace=%d: checks failed\n", rec.Workload, rec.Trace)
		status = 1
	}
	return status
}
