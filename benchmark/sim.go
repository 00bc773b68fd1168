package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// simSegment is one (system, workload) pair of a simulation workload. chunk
// is how many transactions one timed sample covers, pinned so a sample is
// roughly a millisecond of host time; warm and check are the transactions of
// the untimed warm-up and of the exact-count window that follows it.
type simSegment struct {
	name  string
	kind  systems.Kind
	opts  systems.Options
	mk    func() workload.Workload
	chunk int
	warm  int
	check int
}

// rounds is how many times the measured window goes round the segments, each
// round giving every segment an equal slice; a slice is one sub-window of its
// segment. tail is the percentile the tail latency is read at in every slice,
// pinned so it cannot flip between ladder rungs as a sample count wavers
// around a threshold: low enough that every segment keeps ten samples beyond
// it over the run.
type simDef struct {
	name   string
	segs   []simSegment
	rounds int
	tail   float64
	ladder ladderSpec
}

func microRO() workload.Workload {
	return workload.NewMicro(workload.MicroConfig{Rows: microRows, RowsPerTx: 1})
}

func tpcc(warehouses int) workload.TPCCConfig {
	return workload.TPCCConfig{Warehouses: warehouses, Items: 10_000, CustomersPerDistrict: 600, OrdersPerDistrict: 600}
}

func olap() workload.Workload {
	return workload.NewOLAP(workload.OLAPConfig{Rows: olapRows, Groups: 16})
}

// simOLTP: steady-state point transactions, all five archetypes on the 1-row
// read-only micro-benchmark over 2^20 rows (larger than the simulated 20MB
// LLC) plus TPC-C on the fastest and the slowest stack. Instruction-side
// simulation and index lookups do the work; population is set-up.
var simOLTP = simDef{
	name:   "sim_oltp",
	rounds: 24,
	tail:   0.95,
	segs: []simSegment{
		{"shoremt/micro_ro", systems.ShoreMT, systems.Options{}, microRO, 32, 1000, 2000},
		{"dbmsd/micro_ro", systems.DBMSD, systems.Options{}, microRO, 12, 500, 1000},
		{"voltdb/micro_ro", systems.VoltDB, systems.Options{}, microRO, 48, 1000, 2000},
		{"hyper/micro_ro", systems.HyPer, systems.Options{}, microRO, 512, 5000, 20000},
		{"dbmsm/micro_ro", systems.DBMSM, systems.Options{}, microRO, 32, 1000, 2000},
		{"voltdb/tpcc", systems.VoltDB, systems.Options{}, func() workload.Workload { return workload.NewTPCC(tpcc(2)) }, 4, 200, 400},
		{"shoremt/tpcc", systems.ShoreMT, systems.Options{}, func() workload.Workload { return workload.NewTPCC(tpcc(2)) }, 2, 100, 200},
	},
	ladder: ladderSpec{kind: systems.VoltDB, spec: workload.Spec{Kind: "micro", Rows: 1 << 16, RowsPerTx: 1}, cores: 2},
}

// simScan: the analytical scan/aggregate microbenchmark (2^18 rows, larger
// than the simulated LLC once indexed) on three archetypes, plus the 50%
// analytical hybrid on a two-socket machine with partitioned placement.
// It uses simmem and core the other way round from simOLTP: traced data
// accesses dominate and instruction fetch is a small share.
var simScan = simDef{
	name:   "sim_scan",
	rounds: 8,
	tail:   0.75,
	segs: []simSegment{
		{"hyper/olap", systems.HyPer, systems.Options{}, olap, 1, 4, 16},
		{"voltdb/olap", systems.VoltDB, systems.Options{}, olap, 1, 4, 16},
		{"dbmsm/olap", systems.DBMSM, systems.Options{}, olap, 1, 4, 16},
		{"voltdb/hybrid50-2s", systems.VoltDB,
			systems.Options{Cores: 4, Sockets: 2, Placement: core.PlacePartitioned},
			func() workload.Workload {
				return workload.NewHybrid(workload.HybridConfig{TPCC: tpcc(4), OLAPPercent: 50})
			}, 2, 40, 80},
	},
	ladder: ladderSpec{kind: systems.HyPer, spec: workload.Spec{Kind: "olap", Rows: 1 << 14, Groups: 16}, cores: 2},
}

// simInstance is one segment set up and running.
type simInstance struct {
	seg   *simSegment
	e     *engine.Engine
	w     workload.Workload
	rng   *workload.Rand
	cores int
	parts int
	n     int64 // transactions invoked so far
}

// setupSegment builds the engine, installs and populates the workload
// untraced, the way harness.Bench does before its measured window.
func setupSegment(seg *simSegment, seed uint64, idx int) *simInstance {
	e := systems.New(seg.kind, seg.opts)
	w := seg.mk()
	w.Setup(e)
	e.Machine().Arena.EnableTracing(false)
	w.Populate(e)
	e.Machine().Arena.EnableTracing(true)
	return &simInstance{
		seg: seg, e: e, w: w,
		rng:   workload.NewRand(seed*1_000_003 + uint64(idx)),
		cores: len(e.Machine().CPUs),
		parts: e.Partitions(),
	}
}

// run invokes n transactions, round-robin over the simulated cores with one
// partition per core on partitioned engines (harness.Bench's protocol).
// Sampled transactions record request spans when a tracer is given.
func (s *simInstance) run(n int, res *result, tr *tracer) {
	for k := 0; k < n; k++ {
		c := int(s.n % int64(s.cores))
		s.n++
		s.e.SetCore(c)
		part := 0
		if s.parts > 1 {
			part = c
		}
		var call workload.Call
		var err error
		if tr != nil {
			req := tr.begin("sim.request:"+s.seg.name, rootSpan, s.n)
			g := tr.begin("workload.Gen", req, s.n)
			call = s.w.Gen(s.rng, part, s.parts)
			tr.end(g)
			iv := tr.begin("engine.Invoke", req, s.n)
			err = s.e.Invoke(part, call.Proc, call.Args...)
			tr.end(iv)
			tr.end(req)
		} else {
			call = s.w.Gen(s.rng, part, s.parts)
			err = s.e.Invoke(part, call.Proc, call.Args...)
		}
		if err != nil {
			res.fail("%s: %s: %v", s.seg.name, call.Proc, err)
			continue
		}
		if ow, ok := s.w.(*workload.OLAP); ok {
			if msg := checkOLAP(ow, call); msg != "" {
				res.fail("%s: %s", s.seg.name, msg)
			}
		}
	}
	res.attempted += int64(n)
}

func (s *simInstance) instructions() uint64 {
	var sum uint64
	for _, c := range s.e.Machine().CPUs {
		sum += c.Instructions
	}
	return sum
}

// simCounts are the exact simulated counters of one segment's check window,
// summed over its cores. A change meant only to speed the simulator up must
// leave every one of them identical.
type simCounts struct {
	Segment  string  `json:"segment"`
	Tx       uint64  `json:"tx"`
	Instr    uint64  `json:"instructions"`
	Cycles   float64 `json:"cycles"`
	L1IAcc   uint64  `json:"l1i_acc"`
	L1IMiss  uint64  `json:"l1i_miss"`
	L1DAcc   uint64  `json:"l1d_acc"`
	LLCDMiss uint64  `json:"llcd_miss"`
}

func (c *simCounts) add(o simCounts) {
	c.Tx += o.Tx
	c.Instr += o.Instr
	c.Cycles += o.Cycles
	c.L1IAcc += o.L1IAcc
	c.L1IMiss += o.L1IMiss
	c.L1DAcc += o.L1DAcc
	c.LLCDMiss += o.LLCDMiss
}

// window runs the check window and returns its exact counters; it also
// checks that the per-core counters add up to the machine's totals.
func (s *simInstance) window(res *result) simCounts {
	m := s.e.Machine()
	before := make([]core.Snapshot, s.cores)
	for c := range before {
		before[c] = m.SnapshotCore(c)
	}
	failedBefore := res.failed
	s.run(s.seg.check, res, nil)

	out := simCounts{Segment: s.seg.name}
	var sum core.Snapshot
	for c := range before {
		after := m.SnapshotCore(c)
		meas := core.NewMeasurement(before[c], after, m.Hier.Config(), s.e.BaseCPI())
		d := meas.Delta
		out.add(simCounts{Tx: d.TxCount, Instr: d.Instructions, Cycles: meas.Cycles(),
			L1IAcc: d.Misses.L1IAcc, L1IMiss: d.Misses.L1IMiss, L1DAcc: d.Misses.L1DAcc, LLCDMiss: d.Misses.LLCDMiss})
		sum.Instructions += after.Instructions
		sum.TxCount += after.TxCount
		sum.Misses.Add(after.Misses)
	}
	if total := m.Snapshot(); total.Instructions != sum.Instructions || total.TxCount != sum.TxCount || total.Misses != sum.Misses {
		res.fail("%s: per-core counters do not add up to the machine totals", s.seg.name)
	}
	if res.failed == failedBefore && out.Tx != uint64(s.seg.check) {
		res.fail("%s: TxCount moved by %d over %d transactions", s.seg.name, out.Tx, s.seg.check)
	}
	return out
}

// checkOLAP compares the captured result of the last analytical query with a
// closed form over the generator's data (val(i) = 3i-1, grp(i) = i mod G),
// independent of the engine under test.
func checkOLAP(w *workload.OLAP, call workload.Call) string {
	cfg, got := w.Config(), w.Last
	n := cfg.Rows
	sumVals := func(lo, hi int64) int64 { // sum of 3i-1 for i in [lo, hi]
		cnt := hi - lo + 1
		return 3*(lo+hi)*cnt/2 - cnt
	}
	switch call.Proc {
	case "olap_sum":
		if got.Rows != n || got.Count != n || got.Sum != sumVals(0, n-1) || got.Min != workload.OLAPVal(0) || got.Max != workload.OLAPVal(n-1) {
			return fmt.Sprintf("olap_sum returned %+v", got)
		}
	case "olap_range":
		lo, hi := call.Args[0].I, min(call.Args[1].I, n-1)
		if cnt := hi - lo + 1; got.Rows != cnt || got.Count != cnt || got.Sum != sumVals(lo, hi) {
			return fmt.Sprintf("olap_range [%d,%d] returned rows=%d count=%d sum=%d", lo, hi, got.Rows, got.Count, got.Sum)
		}
	case "olap_group":
		if got.Rows != n || int64(len(got.Groups)) != min(cfg.Groups, n) {
			return fmt.Sprintf("olap_group returned %d rows in %d groups", got.Rows, len(got.Groups))
		}
		for g := int64(0); g < cfg.Groups; g++ {
			cnt := (n - g + cfg.Groups - 1) / cfg.Groups // members g, g+G, ...
			want := 3*(g*cnt+cfg.Groups*cnt*(cnt-1)/2) - cnt
			if got.Groups[g] != want {
				return fmt.Sprintf("olap_group: group %d sums to %d, want %d", g, got.Groups[g], want)
			}
		}
	}
	return ""
}

var writeExpect = os.Getenv("OLTPBENCH_WRITE_EXPECT") == "1"

// checkExpected compares the default seed's check-window counters with the
// committed expectation (regenerate, deliberately, with
// OLTPBENCH_WRITE_EXPECT=1 after a change that is meant to move the model).
func checkExpected(def *simDef, got []simCounts, res *result) {
	path := filepath.Join("benchmark", "expect", def.name+".json")
	if writeExpect {
		data, err := json.MarshalIndent(got, "", " ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			res.fail("writing %s: %v", path, err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		res.fail("expected counters: %v", err)
		return
	}
	var want []simCounts
	if err := json.Unmarshal(data, &want); err != nil {
		res.fail("%s: %v", path, err)
		return
	}
	if len(want) != len(got) {
		res.fail("%s lists %d segments, ran %d", path, len(want), len(got))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			res.fail("simulated counters moved: got %+v, %s has %+v", got[i], path, want[i])
		}
	}
}

// runSim runs a simulation workload. One operation of the end-to-end metrics
// is 1000 simulated instructions. The window goes def.rounds times round the
// segments; each slice gives its segment one throughput (simulated
// kilo-instructions per host second) and, from the host time each chunk of
// transactions took per 1000 instructions it retired, one median and one tail
// latency. A segment's three numbers are the quiet deciles over its slices
// (see quietDecile); the workload's are the segments' numbers averaged
// with equal weight. attempted and failed count transactions.
func runSim(o runOpts, def simDef) *result {
	res := newResult()
	oneProcessor()

	var insts []*simInstance
	var setups []float64
	for rep := 0; rep < o.setupReps(simSetupReps); rep++ {
		clear(insts)
		insts = insts[:0]
		betweenSetups()
		sp := o.tr.begin("sim.setup", rootSpan, 0)
		t0 := time.Now()
		for i := range def.segs {
			insts = append(insts, setupSegment(&def.segs[i], o.seed, i))
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.tr.end(sp)
	}
	res.m["setup_s"] = quietDecile(setups, false)

	// Untimed: warm the simulated caches, then the exact-count window.
	counts := make([]simCounts, len(insts))
	var agg simCounts
	for i, s := range insts {
		s.run(s.seg.warm, res, nil)
		counts[i] = s.window(res)
		agg.add(counts[i])
	}
	if o.seed == 1 {
		checkExpected(&def, counts, res)
	}

	window := o.seconds
	if o.trace {
		window *= 0.5 // the rest of the traced pass is the ladder
	}
	slice := time.Duration(window / float64(def.rounds*len(insts)) * float64(time.Second))
	goBefore := readGoCounters()
	attemptedBefore := res.attempted
	// One value per slice, per segment.
	type sliceSamples struct {
		rate, p50, tail []float64
		chunks          int
	}
	per := make([]sliceSamples, len(insts))
	var lat []float64 // the chunks of the slice being measured
	var totalKI, totalSec float64
	for round := 0; round < def.rounds; round++ {
		for si, s := range insts {
			sp := o.tr.begin("sim.slice:"+s.seg.name, rootSpan, 0)
			if o.tr != nil && round == 0 {
				// Request spans for the first transactions, for at most a
				// quarter of a slice (an analytical scan takes milliseconds).
				for k, t0 := 0, time.Now(); k < tracedRequests && time.Since(t0) < slice/4; k++ {
					s.run(1, res, o.tr)
				}
			}
			lat = lat[:0]
			start := time.Now()
			deadline := start.Add(slice)
			t0, i0 := start, s.instructions()
			iStart := i0
			for chunks := 1; ; chunks++ {
				s.run(s.seg.chunk, res, nil)
				t1, i1 := time.Now(), s.instructions()
				if ki := float64(i1-i0) / 1000; ki > 0 {
					lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/1e3/ki)
				}
				t0, i0 = t1, i1
				// Stop where one more chunk would overshoot the slice by
				// more than it undershoots now.
				if mean := t1.Sub(start) / time.Duration(chunks); !t1.Add(mean / 2).Before(deadline) {
					break
				}
			}
			o.tr.end(sp)
			ki, sec := float64(i0-iStart)/1000, t0.Sub(start).Seconds()
			totalKI += ki
			totalSec += sec
			sort.Float64s(lat)
			ps := &per[si]
			ps.rate = append(ps.rate, ki/sec)
			ps.p50 = append(ps.p50, quantile(lat, 0.5))
			ps.tail = append(ps.tail, quantile(lat, def.tail))
			ps.chunks += len(lat)
		}
	}
	for si, s := range insts {
		ps := &per[si]
		rate, p50, tail := quietDecile(ps.rate, true), quietDecile(ps.p50, false), quietDecile(ps.tail, false)
		res.m["throughput_ops_s"] += rate / float64(len(insts))
		res.m["latency_p50_us"] += p50 / float64(len(insts))
		res.m["latency_tail_us"] += tail / float64(len(insts))
		res.note("%s: %d slices, n=%d chunks of %d: %.0f kI/s, p50 %.3f, p%g %.3f us per simulated kI",
			s.seg.name, def.rounds, ps.chunks, s.seg.chunk, rate, p50, def.tail*100, tail)
		res.note("%s: slices: kI/s %.0f, p50 %.3f, tail %.3f", s.seg.name, ps.rate, ps.p50, ps.tail)
		if !o.smoke && tailQuantile(ps.chunks) < def.tail {
			res.note("%s: fewer than ten samples beyond p%g", s.seg.name, def.tail*100)
		}
	}
	res.setGo(goBefore, res.attempted-attemptedBefore)
	res.note("%s: %d transactions, %.0f simulated kI in %.2fs (%.3f host ns per simulated instruction)",
		def.name, res.attempted, totalKI, totalSec, totalSec*1e6/totalKI)

	for _, s := range insts {
		if tx := s.e.Machine().Snapshot().TxCount; res.failed == 0 && int64(tx) != s.n {
			res.fail("%s: engine counted %d transactions, %d were invoked", s.seg.name, tx, s.n)
		}
	}

	if o.trace {
		tx := float64(agg.Tx)
		res.m["core.sim_instr_per_tx"] = float64(agg.Instr) / tx
		res.m["core.sim_cycles_per_tx"] = agg.Cycles / tx
		res.m["core.l1i_acc_per_tx"] = float64(agg.L1IAcc) / tx
		res.m["core.l1i_miss_per_tx"] = float64(agg.L1IMiss) / tx
		res.m["core.l1d_acc_per_tx"] = float64(agg.L1DAcc) / tx
		res.m["core.llcd_miss_per_tx"] = float64(agg.LLCDMiss) / tx
		res.m["core.host_ns_per_sim_instr"] = totalSec * 1e6 / totalKI
		if lt := selfTimes(o.tr.spans)["engine.Invoke"]; lt.Count > 0 {
			res.m["engine.invoke_us"] = float64(lt.Total) / float64(lt.Count) / 1e3
		}
		runLadder(o, res, def.ladder)
	}
	return res
}
