package main

import (
	"bytes"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/index"
	"oltpsim/internal/metrics"
	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// The ladder: one rung per layer, each a timed loop around the layer's
// public functions, run in every traced pass. Rungs under a microsecond are
// timed in batches (a clock read costs as much as the call); each reports the
// median over its batches. The engine rungs run on the traced workload's own
// system and spec.

// ladderSpec names the system and workload the engine rungs run on.
type ladderSpec struct {
	kind  systems.Kind
	spec  workload.Spec
	cores int
}

// ladderFigures is the engine the figures path is dominated by.
var ladderFigures = ladderSpec{kind: systems.VoltDB, spec: workload.Spec{Kind: "micro", Rows: 1 << 16, RowsPerTx: 1}, cores: 2}

// perOp times f(n) batch after batch for about the budget (at least five
// batches) and returns the median nanoseconds per operation.
func perOp(budget time.Duration, n int, f func(n int)) float64 {
	var samples []float64
	for deadline := time.Now().Add(budget); len(samples) < 5 || time.Now().Before(deadline); {
		t0 := time.Now()
		f(n)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

var ladderSink uint64

func runLadder(o runOpts, res *result, ls ladderSpec) {
	sp := o.tr.begin("ladder", rootSpan, 0)
	defer o.tr.end(sp)
	// Each of the roughly thirty rungs gets an equal share of a quarter of
	// the run.
	budget := time.Duration(o.seconds * 0.25 / 30 * float64(time.Second))
	ladderSimmem(res, budget)
	ladderCore(res, budget)
	ladderIndex(res, budget)
	ladderWire(res, budget)
	ladderEngine(o, res, ls, budget)
}

// ladderSimmem: one Arena access with a core.Machine attached as tracer,
// over 16KB (resident in the simulated L1D), traced and untraced.
func ladderSimmem(res *result, budget time.Duration) {
	m := core.NewMachine(core.IvyBridge(1))
	a := m.Arena
	base := a.AllocData(16<<10, 64)
	read := func(n int) {
		var s uint64
		for i := 0; i < n; i++ {
			s += a.ReadU64(base + simmem.Addr(i%2048*8))
		}
		ladderSink += s
	}
	a.EnableTracing(true)
	res.m["simmem.read_u64_traced_ns"] = perOp(budget, 1<<14, read)
	a.EnableTracing(false)
	res.m["simmem.read_u64_untraced_ns"] = perOp(budget, 1<<14, read)
	res.m["simmem.write_u64_untraced_ns"] = perOp(budget, 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			a.WriteU64(base+simmem.Addr(i%2048*8), uint64(i))
		}
	})
}

// ladderCore: the hierarchy's two entry points, serial and concurrent mode.
func ladderCore(res *result, budget time.Duration) {
	// Instruction fetch: regions sized like VoltDB's stack, driven through
	// CPU.Exec the way the engine does; the cost is per line fetched.
	m := core.NewMachine(core.IvyBridge(1))
	cs := core.NewCodeSpace(m.Arena)
	rs := systems.New(systems.VoltDB, systems.Options{}).Config().Regions
	var regions []*core.Region
	for i, r := range []engine.RegionSpec{rs.Net, rs.Dispatch, rs.PlanExec, rs.Txn, rs.Index, rs.Storage, rs.Log} {
		if r.Size > 0 {
			regions = append(regions, cs.NewRegionHot("rung", core.Module(i), r.Size, r.BPI, r.Hot))
		}
	}
	cpu := m.CPUs[0]
	var lines uint64
	var elapsed time.Duration
	for deadline := time.Now().Add(budget); lines == 0 || time.Now().Before(deadline); {
		before := m.Hier.Counts(0).L1IAcc
		t0 := time.Now()
		for rep := 0; rep < 8; rep++ {
			for _, r := range regions {
				cpu.Exec(r, 1500)
			}
		}
		elapsed += time.Since(t0)
		lines += m.Hier.Counts(0).L1IAcc - before
	}
	res.m["core.fetch_code_ns"] = float64(elapsed.Nanoseconds()) / float64(lines)

	for _, mode := range []struct {
		suffix string
		mt     bool
	}{{"", false}, {"_mt", true}} {
		m := core.NewMachine(core.IvyBridge(2))
		m.SetConcurrent(mode.mt)
		h := m.Hier
		base := m.Arena.AllocData(1<<30, 64)
		res.m["core.data_access"+mode.suffix+"_l1hit_ns"] = perOp(budget, 1<<14, func(n int) {
			for i := 0; i < n; i++ {
				ladderSink += uint64(h.DataAccess(0, base+simmem.Addr(i%64*64), 8, false))
			}
		})
		// 2^22 distinct lines (256MB) against a 20MB LLC: every access misses.
		next := 0
		res.m["core.data_access"+mode.suffix+"_llcmiss_ns"] = perOp(budget, 1<<12, func(n int) {
			for i := 0; i < n; i++ {
				ladderSink += uint64(h.DataAccess(0, base+simmem.Addr(next%(1<<22)*64), 8, false))
				next++
			}
		})
		if !mode.mt {
			// Two cores alternating writes to one line: each write
			// invalidates the other core's copy.
			res.m["core.data_access_shared_write_ns"] = perOp(budget, 1<<12, func(n int) {
				for i := 0; i < n; i++ {
					ladderSink += uint64(h.DataAccess(i&1, base, 8, true))
				}
			})
		}
		h.Quiesce()
	}
}

// ladderIndex: insert, lookup and ordered scan on each index substrate over
// an untraced arena, 2^16 eight-byte keys.
func ladderIndex(res *result, budget time.Duration) {
	const keys = 1 << 16
	key := make([]byte, 8)
	for _, ix := range []struct {
		name string
		mk   func() index.Index
	}{
		{"cctree", func() index.Index { return index.NewCCTree(simmem.New(), 8, 64) }},
		{"btree", func() index.Index {
			a := simmem.New()
			return index.NewBTree(a, storage.NewBufferPool(a, 1<<12), 8)
		}},
		{"art", func() index.Index { return index.NewART(simmem.New(), 8) }},
		{"hash", func() index.Index { return index.NewHashIndex(simmem.New(), 8, keys) }},
	} {
		var idx index.Index
		res.m["index.insert_ns_"+ix.name] = perOp(budget, keys, func(n int) {
			idx = ix.mk() // a fresh index per batch, so every insert is new
			for i := 0; i < n; i++ {
				catalog.PutKeyLong(key, int64(uint32(i)*2654435761%keys))
				idx.Insert(key, uint64(i))
			}
		}) // includes the constructor, amortised over 2^16 inserts
		var hits uint64
		res.m["index.lookup_ns_"+ix.name] = perOp(budget, 1<<12, func(n int) {
			for i := 0; i < n; i++ {
				catalog.PutKeyLong(key, int64(uint32(i)*40503%keys))
				if _, ok := idx.Lookup(key); ok {
					hits++
				}
			}
		})
		ladderSink += hits
		if art, ok := idx.(*index.ART); ok {
			res.m["index.scan_ns_per_row_art"] = perOp(budget, keys, func(n int) {
				rows := 0
				catalog.PutKeyLong(key, 0)
				art.Scan(key, func([]byte, uint64) bool { rows++; return rows < n })
				ladderSink += uint64(rows)
			})
		}
	}
}

// ladderWire: one EXEC frame encoded, one response frame read and decoded,
// one histogram record.
func ladderWire(res *result, budget time.Duration) {
	var w wire.Buffer
	args := []catalog.Value{catalog.LongVal(12345), catalog.LongVal(678)}
	res.m["wire.encode_exec_ns"] = perOp(budget, 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			encodeExec(&w, uint32(i), 3, i&1, args)
		}
		ladderSink += uint64(len(w.Bytes()))
	})
	encodeExec(&w, 7, 3, 1, args)
	frame := append([]byte(nil), w.Bytes()...)
	stream := bytes.Repeat(frame, 1<<12)
	var buf []byte
	res.m["wire.decode_frame_ns"] = perOp(budget, 1<<12, func(n int) {
		rd := bytes.NewReader(stream)
		for i := 0; i < n; i++ {
			_, payload, b, err := wire.ReadFrame(rd, buf)
			buf = b
			if err != nil {
				panic(err) // the stream is the benchmark's own encoding
			}
			r := wire.NewReader(payload)
			ladderSink += uint64(r.U32()) + uint64(r.U32()) + uint64(r.U16())
			for k := r.U16(); k > 0; k-- {
				_ = r.U8()
				ladderSink += uint64(r.I64())
			}
		}
	})
	var h metrics.Histogram
	res.m["metrics.hist_record_ns"] = perOp(budget, 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(uint64(i)*7919 + 1000)
		}
	})
}

// ladderEngine: the engine rungs on the traced workload's system and spec —
// load, direct Invoke, Session.Invoke, InvokeBatch of eight, then the same
// session in concurrent mode and an Observe. Archetypes that cannot enter
// concurrent mode leave the two concurrent rungs at 0.
func ladderEngine(o runOpts, res *result, ls ladderSpec, budget time.Duration) {
	e := systems.New(ls.kind, systems.Options{Cores: max(ls.cores, 1)})
	parts := e.Partitions()
	wl := ls.spec.New(parts)
	wl.Setup(e)
	e.Machine().Arena.EnableTracing(false)
	sp := o.tr.do("workload.Populate", rootSpan, func() { wl.Populate(e) })
	e.Machine().Arena.EnableTracing(true)
	var rows uint64
	for _, t := range e.Tables() {
		rows += t.Count()
	}
	res.m["engine.load_rows_per_s"] = float64(rows) / o.tr.seconds(sp)

	rng := workload.NewRand(o.seed ^ 0x1adde7)
	res.m["workload.gen_ns"] = perOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			ladderSink += uint64(len(wl.Gen(rng, i%parts, parts).Args))
		}
	})

	budget *= 4 // transactions are microseconds, not nanoseconds
	var failed int64
	invoke := func(f func(part int, c workload.Call) error) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				part := i % parts
				if f(part, wl.Gen(rng, part, parts)) != nil {
					failed++
				}
			}
		}
	}
	if _, ok := res.m["engine.invoke_us"]; !ok {
		res.m["engine.invoke_us"] = perOp(budget, 16, invoke(func(part int, c workload.Call) error {
			e.SetCore(part)
			return e.Invoke(part, c.Proc, c.Args...)
		})) / 1e3
	}
	sess := e.NewSession()
	viaSession := invoke(func(part int, c workload.Call) error { return sess.Invoke(part, part, c.Proc, c.Args...) })
	res.m["engine.session_invoke_us"] = perOp(budget, 16, viaSession) / 1e3
	reqs := make([]engine.Request, 8)
	args := make([][]catalog.Value, 8)
	errs := make([]error, 8)
	res.m["engine.session_batch8_us"] = perOp(budget, 8, func(int) {
		for i := range reqs {
			c := wl.Gen(rng, 0, parts)
			args[i] = append(args[i][:0], c.Args...) // Gen reuses its buffer
			reqs[i] = engine.Request{Part: 0, Proc: c.Proc, Args: args[i]}
		}
		sess.InvokeBatch(0, reqs, errs)
		for _, err := range errs {
			if err != nil {
				failed++
			}
		}
	}) / 1e3
	if e.EnterConcurrent() == nil {
		res.m["engine.session_invoke_mt_us"] = perOp(budget, 16, viaSession) / 1e3
		res.m["engine.observe_us"] = perOp(budget, 4, func(n int) {
			for i := 0; i < n; i++ {
				e.Observe(func(m *core.Machine) { ladderSink += m.CPUs[0].Instructions })
			}
		}) / 1e3
		e.LeaveConcurrent()
	}
	if failed > 0 {
		res.fail("ladder: %d engine invocations failed", failed)
	}
}
