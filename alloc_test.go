package oltpsim

import (
	"testing"

	"oltpsim/internal/engine"
	"oltpsim/internal/workload"
)

// TestMicroTxZeroAllocs gates the zero-allocation steady state of the full
// transaction path: after the paper's measurement protocol has warmed an
// engine, invoking one more micro-benchmark transaction must not allocate,
// for every archetype. The engine recycles its Tx value, scratch arena, lock
// bitmap, MVCC context and statement caches across invocations; a regression
// here puts the Go allocator back on the per-access hot path.
func TestMicroTxZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; gate runs without -race")
	}
	for _, sys := range AllSystems() {
		for _, rw := range []bool{false, true} {
			name := sys.String() + "/ro"
			if rw {
				name = sys.String() + "/rw"
			}
			t.Run(name, func(t *testing.T) {
				e := NewSystem(sys, SystemOptions{})
				w := NewMicro(MicroConfig{Rows: 1 << 12, RowsPerTx: 1, ReadWrite: rw})
				// Populate, warm up, and run a measured window exactly as the
				// harness does; the engine is left warm with tracing enabled.
				Bench(e, w, BenchOpts{Warm: 50, Measure: 100, Seed: 11})

				rng := workload.NewRand(99)
				call := w.Gen(rng, 0, e.Partitions())
				// One untimed invocation settles remaining lazy capacity
				// (scratch high-water marks, map buckets).
				if err := e.Invoke(0, call.Proc, call.Args...); err != nil {
					t.Fatal(err)
				}
				avg := testing.AllocsPerRun(200, func() {
					if err := e.Invoke(0, call.Proc, call.Args...); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Errorf("%s: steady-state micro transaction allocates %.2f objects/op, want 0",
						name, avg)
				}
			})
		}
	}
}

// TestOLAPTxZeroAllocs extends the zero-allocation gate to a scan-heavy
// transaction: a full-table aggregate pass over the OLAP micro table. The
// analytical executor recycles its row-decode buffers and its index-visit
// closure on the engine, so streaming thousands of rows must allocate
// nothing — a per-row (or even per-query) allocation here would dominate the
// simulator's wall-clock on the HTAP figures.
func TestOLAPTxZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; gate runs without -race")
	}
	for _, sys := range []SystemKind{VoltDB, HyPer, DBMSM} {
		t.Run(sys.String(), func(t *testing.T) {
			e := NewSystem(sys, SystemOptions{})
			w := NewOLAP(OLAPConfig{Rows: 1 << 12})
			Bench(e, w, BenchOpts{Warm: 10, Measure: 20, Seed: 13})

			// olap_sum is the scan-heavy shape: one full pass folding
			// COUNT/SUM/MIN/MAX over every row through the traced hierarchy.
			if err := e.Invoke(0, "olap_sum"); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(20, func() {
				if err := e.Invoke(0, "olap_sum"); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s: steady-state scan transaction allocates %.2f objects/op, want 0",
					sys, avg)
			}
		})
	}
}

// TestGenZeroAllocs checks that the workload generator itself is
// allocation-free in steady state (its argument buffer is recycled).
func TestGenZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; gate runs without -race")
	}
	w := NewMicro(MicroConfig{Rows: 1 << 12, RowsPerTx: 10})
	rng := workload.NewRand(7)
	w.Gen(rng, 0, 1)
	avg := testing.AllocsPerRun(200, func() {
		w.Gen(rng, 0, 1)
	})
	if avg != 0 {
		t.Errorf("micro Gen allocates %.2f objects/op, want 0", avg)
	}
}

// TestSessionZeroAllocs extends the gate to the serving path's entry points:
// Session.Invoke and Session.InvokeBatch must add nothing to the engine's
// zero-allocation steady state, in serialized and in concurrent mode. Invoke
// is a one-request InvokeBatch; its request and error slots must stay on the
// stack.
func TestSessionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; gate runs without -race")
	}
	for _, concurrent := range []bool{false, true} {
		name := "serialized"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			e := NewSystem(VoltDB, SystemOptions{Cores: 2})
			w := NewMicro(MicroConfig{Rows: 1 << 12, RowsPerTx: 1})
			w.Setup(e)
			e.Machine().Arena.EnableTracing(false)
			w.Populate(e)
			e.Machine().Arena.EnableTracing(true)
			if concurrent {
				if err := e.EnterConcurrent(); err != nil {
					t.Fatal(err)
				}
			}
			const part = 1
			s := e.NewSession()
			call := w.Gen(workload.NewRand(99), part, e.Partitions())
			reqs := make([]engine.Request, 8)
			for i := range reqs {
				reqs[i] = engine.Request{Part: part, Proc: call.Proc, Args: call.Args}
			}
			errs := make([]error, len(reqs))
			invoke := func() {
				if err := s.Invoke(part, part, call.Proc, call.Args...); err != nil {
					t.Fatal(err)
				}
			}
			batch := func() {
				s.InvokeBatch(part, reqs, errs)
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			// Untimed invocations settle remaining lazy capacity.
			invoke()
			batch()
			if avg := testing.AllocsPerRun(200, invoke); avg != 0 {
				t.Errorf("%s: Session.Invoke allocates %.2f objects/op, want 0", name, avg)
			}
			if avg := testing.AllocsPerRun(50, batch); avg != 0 {
				t.Errorf("%s: Session.InvokeBatch allocates %.2f objects/batch, want 0", name, avg)
			}
		})
	}
}
