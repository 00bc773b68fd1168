package workload_test

// The concurrent half of the differential suite: replay a workload's call
// stream through the engine's concurrent mode — real goroutines, one per
// core, each executing its own partition's stream simultaneously — and then
// assert row-level agreement against the reference executor. Partitioned
// workloads touch disjoint key sets per partition, so the final state is
// independent of the cross-partition interleaving: applying each worker's
// stream to the reference in per-partition order must reproduce exactly what
// the concurrently-executing engine holds.

import (
	"fmt"
	"sync"
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/refdb"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// genStreams pre-generates per-partition call streams single-threaded
// (Workload.Gen recycles an argument buffer, so the calls are deep-copied
// before the workers share them).
func genStreams(w workload.Workload, parts, perPart int, seed uint64) [][]workload.Call {
	streams := make([][]workload.Call, parts)
	for p := 0; p < parts; p++ {
		rng := workload.NewRand(seed + uint64(p)*1e9)
		calls := make([]workload.Call, perPart)
		for i := range calls {
			c := w.Gen(rng, p, parts)
			args := make([]catalog.Value, len(c.Args))
			copy(args, c.Args)
			calls[i] = workload.Call{Proc: c.Proc, Args: args}
		}
		streams[p] = calls
	}
	return streams
}

func TestRefExecConcurrentMicro(t *testing.T) {
	const cores, perPart = 4, 200
	for _, seed := range refSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := systems.New(systems.VoltDB, systems.Options{Cores: cores})
			w := workload.NewMicro(workload.MicroConfig{Rows: 2048, RowsPerTx: 4, ReadWrite: true})
			w.Setup(e)
			w.Populate(e)
			db := refdb.New(e)
			refdb.PopulateMicro(db, w)
			streams := genStreams(w, cores, perPart, seed)
			e.Machine().Arena.EnableTracing(true)
			if err := e.EnterConcurrent(); err != nil {
				t.Fatalf("EnterConcurrent: %v", err)
			}

			var wg sync.WaitGroup
			for p := 0; p < cores; p++ {
				wg.Add(1)
				go func(p int, calls []workload.Call) {
					defer wg.Done()
					s := e.NewSession()
					for i, c := range calls {
						if err := s.Invoke(p, p, c.Proc, c.Args...); err != nil {
							t.Errorf("partition %d call %d (%s): %v", p, i, c.Proc, err)
							return
						}
					}
				}(p, streams[p])
			}
			wg.Wait()

			// The engine executed the four streams concurrently; the
			// reference replays them sequentially. Disjoint partitions make
			// the orders equivalent.
			for p := 0; p < cores; p++ {
				for i, c := range streams[p] {
					apply(t, i, refdb.ApplyMicro(db, w, c))
				}
			}
			e.Observe(func(m *core.Machine) {
				if err := m.Hier.CheckCoherent(); err != nil {
					t.Errorf("coherence: %v", err)
				}
				var tx uint64
				for _, cpu := range m.CPUs {
					tx += cpu.TxCount
				}
				if want := uint64(cores * perPart); tx+e.Aborts.Load() != want {
					t.Errorf("engine ran %d transactions, want %d", tx+e.Aborts.Load(), want)
				}
			})
			compareState(t, e, db)
		})
	}
}

// TestRefExecConcurrentMatchesSerialized replays the identical streams once
// through concurrent mode and once serialized on a fresh engine: the final
// database states must agree row for row (the reference is the bridge — both
// runs are compared against the same reference DB).
func TestRefExecConcurrentMatchesSerialized(t *testing.T) {
	const cores, perPart, seed = 4, 150, 4242
	build := func() (*engine.Engine, *workload.Micro) {
		e := systems.New(systems.VoltDB, systems.Options{Cores: cores})
		w := workload.NewMicro(workload.MicroConfig{Rows: 1024, RowsPerTx: 2, ReadWrite: true})
		w.Setup(e)
		w.Populate(e)
		e.Machine().Arena.EnableTracing(true)
		return e, w
	}

	// Serialized run.
	eSer, wSer := build()
	streams := genStreams(wSer, cores, perPart, seed)
	for p := 0; p < cores; p++ {
		eSer.SetCore(p)
		for _, c := range streams[p] {
			if err := eSer.Invoke(p, c.Proc, c.Args...); err != nil {
				t.Fatalf("serialized partition %d (%s): %v", p, c.Proc, err)
			}
		}
	}

	// Concurrent run of the same streams.
	eCon, _ := build()
	if err := eCon.EnterConcurrent(); err != nil {
		t.Fatalf("EnterConcurrent: %v", err)
	}
	var wg sync.WaitGroup
	for p := 0; p < cores; p++ {
		wg.Add(1)
		go func(p int, calls []workload.Call) {
			defer wg.Done()
			s := eCon.NewSession()
			for _, c := range calls {
				if err := s.Invoke(p, p, c.Proc, c.Args...); err != nil {
					t.Errorf("concurrent partition %d (%s): %v", p, c.Proc, err)
					return
				}
			}
		}(p, streams[p])
	}
	wg.Wait()

	// Same reference state must match both engines.
	db := refdb.New(eSer)
	refdb.PopulateMicro(db, wSer)
	for p := 0; p < cores; p++ {
		for _, c := range streams[p] {
			apply(t, 0, refdb.ApplyMicro(db, wSer, c))
		}
	}
	compareState(t, eSer, db)
	compareState(t, eCon, db)
}

// TestSerialConcurrentTwin feeds one seeded call stream, in one order and
// from one goroutine, through a 2-partition HyPer engine in each mode:
// serialized (SetCore + Invoke) and concurrent (EnterConcurrent +
// Session.Invoke). Both modes charge a core through the same path — an
// execution context, index meter and arena tracer pinned to it — so every
// core's PMU counters must agree field for field. VoltDB is not a row yet:
// its cold code windows rotate once per machine while serialized and once
// per core in concurrent mode, which moves its instruction-side misses.
func TestSerialConcurrentTwin(t *testing.T) {
	const parts, calls, seed = 2, 2000, 4141
	for _, tc := range []struct {
		name string
		wl   func() workload.Workload
	}{
		{"micro-rw", func() workload.Workload {
			return workload.NewMicro(workload.MicroConfig{Rows: 4096, RowsPerTx: 4, ReadWrite: true})
		}},
		{"tpcc", func() workload.Workload {
			return workload.NewTPCC(workload.TPCCConfig{Warehouses: 2, Items: 200, CustomersPerDistrict: 30, OrdersPerDistrict: 30})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*engine.Engine, workload.Workload) {
				e := systems.New(systems.HyPer, systems.Options{Cores: parts})
				w := tc.wl()
				w.Setup(e)
				w.Populate(e)
				e.Machine().Arena.EnableTracing(true)
				return e, w
			}
			eSer, w := build()
			eCon, _ := build()
			if err := eCon.EnterConcurrent(); err != nil {
				t.Fatalf("EnterConcurrent: %v", err)
			}

			// One stream, interleaving the partitions at random.
			rng := workload.NewRand(seed)
			type call struct {
				part int
				workload.Call
			}
			stream := make([]call, calls)
			for i := range stream {
				p := rng.Intn(parts)
				c := w.Gen(rng, p, parts)
				stream[i] = call{p, workload.Call{Proc: c.Proc, Args: append([]catalog.Value(nil), c.Args...)}}
			}

			s := eCon.NewSession()
			for i, c := range stream {
				eSer.SetCore(c.part)
				errSer := eSer.Invoke(c.part, c.Proc, c.Args...)
				errCon := s.Invoke(c.part, c.part, c.Proc, c.Args...)
				if (errSer == nil) != (errCon == nil) {
					t.Fatalf("call %d (%s on %d): serialized err %v, concurrent err %v", i, c.Proc, c.part, errSer, errCon)
				}
			}

			snaps := func(e *engine.Engine) (out [parts]core.Snapshot) {
				e.Observe(func(m *core.Machine) {
					for c := range out {
						out[c] = m.SnapshotCore(c)
					}
				})
				return out
			}
			ser, con := snaps(eSer), snaps(eCon)
			for c := range ser {
				if ser[c].TxCount == 0 {
					t.Errorf("core %d ran no transactions", c)
				}
				if ser[c] != con[c] {
					t.Errorf("core %d:\nserialized %+v\nconcurrent %+v", c, ser[c], con[c])
				}
			}
		})
	}
}
