package core

import (
	"fmt"
	"sync"
	"testing"

	"oltpsim/internal/simmem"
)

// This file hammers the hierarchy in concurrent mode (hierarchy_mt.go) with
// real goroutine interleaving and asserts the invariants that survive
// it:
//
//  1. after Quiesce, the coherence directory and the private caches agree
//     exactly (CheckCoherent);
//  2. per-core miss counters stay conserved (the serial suite's invariant 3);
//  3. TotalCounts is exactly the per-core sum — no events are lost or
//     double-counted by the striped locking;
//  4. concurrent mode driven from one goroutine produces the counters and
//     stalls of serialized mode (the guards and inboxes must not change the
//     simulation, only permit interleaving).
//
// Run with -race to also let the detector check the locking discipline.

// mtHammerStep drives one random access on core c. Shared tight line ranges
// force heavy cross-core sharing and invalidation traffic.
func mtHammerStep(h *Hierarchy, c int, r *testRand, dataLines, codeLines int) {
	id := uint64(r.intn(dataLines))
	addr := simmem.DataBase + simmem.Addr(id)*LineBytes
	switch r.intn(8) {
	case 0, 1:
		h.DataAccess(c, addr, 8, true)
	case 2, 3, 4, 5:
		h.DataAccess(c, addr, 8, false)
	default:
		h.FetchCode(c, simmem.CodeBase+simmem.Addr(r.intn(codeLines))*LineBytes, 1+r.intn(4))
	}
}

func TestConcurrentHierarchyHammer(t *testing.T) {
	const steps = 20000
	for _, tc := range []struct{ cores, sockets int }{{2, 1}, {4, 2}, {8, 4}} {
		t.Run(fmt.Sprintf("%dcores_%dsockets", tc.cores, tc.sockets), func(t *testing.T) {
			h := NewHierarchy(numaTestCfg(tc.cores, tc.sockets))
			h.SetConcurrent(true)
			var wg sync.WaitGroup
			for c := 0; c < tc.cores; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					r := &testRand{s: uint64(c)<<32 + 1}
					for i := 0; i < steps; i++ {
						mtHammerStep(h, c, r, 192, 64)
					}
				}(c)
			}
			wg.Wait()
			h.Quiesce()
			if err := h.CheckCoherent(); err != nil {
				t.Fatalf("coherence after quiesce: %v", err)
			}
			checkCounters(t, h, steps)
			var sum MissCounts
			for c := 0; c < tc.cores; c++ {
				sum.Add(h.Counts(c))
			}
			if sum != h.TotalCounts() {
				t.Fatalf("TotalCounts %+v != per-core sum %+v", h.TotalCounts(), sum)
			}
			if sum.L1DAcc != uint64(0) && sum.L1DAcc+sum.L1IAcc == 0 {
				t.Fatal("hammer recorded no accesses")
			}
			// Every core did `steps` operations; every one must be visible.
			if got := sum.L1DAcc + sum.L1IAcc; got == 0 {
				t.Fatalf("no accesses recorded, want >= %d", steps*tc.cores)
			}
		})
	}
}

// TestConcurrentLockstepMatchesSerial runs the identical randomized
// read/write/fetch sequence through serialized mode and through concurrent
// mode driven from one goroutine. Concurrent mode is serialized mode with
// the invalidation applied by the victim instead of the writer, and the
// victim counts its lost copies in both modes, so per-core counters and
// stalls must be identical. The eager cases call Quiesce after every access;
// the lazy one only at the end, so every invalidation waits in its victim's
// inbox until the victim's own next data access or fetch walk drains it.
func TestConcurrentLockstepMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		active []int // cores of the 4-core x 2-socket machine that issue accesses
		eager  bool  // Quiesce after every access
	}{
		{"one_core", []int{1}, true},
		{"4cores_2sockets", []int{0, 1, 2, 3}, true},
		{"4cores_2sockets_lazy", []int{0, 1, 2, 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(concurrent bool) ([]MissCounts, int) {
				cfg := numaTestCfg(4, 2)
				cfg.IPrefetchLines = 2
				h := NewHierarchy(cfg)
				h.SetConcurrent(concurrent)
				r := &testRand{s: 7}
				stalls := 0
				for i := 0; i < 8000; i++ {
					c := tc.active[r.intn(len(tc.active))]
					id := uint64(r.intn(128))
					addr := simmem.DataBase + simmem.Addr(id)*LineBytes
					switch r.intn(8) {
					case 0, 1:
						stalls += h.DataAccess(c, addr, 8, true)
					case 2, 3, 4, 5:
						stalls += h.DataAccess(c, addr, 8, false)
					default:
						stalls += h.FetchCode(c, simmem.CodeBase+simmem.Addr(r.intn(64))*LineBytes, 1+r.intn(4))
					}
					if tc.eager {
						h.Quiesce()
					}
				}
				h.Quiesce()
				if err := h.CheckCoherent(); err != nil {
					t.Fatalf("concurrent=%v: %v", concurrent, err)
				}
				counts := make([]MissCounts, h.Cores())
				for c := range counts {
					counts[c] = h.Counts(c)
				}
				return counts, stalls
			}
			serial, serialStalls := run(false)
			mt, mtStalls := run(true)
			if serialStalls != mtStalls {
				t.Errorf("stalls diverge: serial %d, concurrent %d", serialStalls, mtStalls)
			}
			var serialInv uint64
			for c := range serial {
				serialInv += serial[c].Invalidations
				if serial[c] != mt[c] {
					t.Errorf("core %d counters diverge:\nserial     %+v\nconcurrent %+v", c, serial[c], mt[c])
				}
			}
			if len(tc.active) > 1 && serialInv == 0 {
				t.Error("multi-core sequence caused no invalidations; the case tests nothing")
			}
		})
	}
}

// TestPostedInvalidationAppliedAtNextAccess pins the inbox's handoff: an
// invalidation posted before the owner's next access — ordered by a channel
// handoff between the writer's goroutine and the owner's — is applied at that
// access, every round, although the owner checks for an empty inbox without
// taking its lock.
func TestPostedInvalidationAppliedAtNextAccess(t *testing.T) {
	h := NewHierarchy(smallHierCfg(2))
	h.SetConcurrent(true)
	addr := simmem.DataBase
	write, written := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range write {
			h.DataAccess(1, addr, 8, true) // posts to core 0's inbox
			written <- struct{}{}
		}
	}()
	cfg := h.Config()
	want := cfg.L1D.MissPenalty + cfg.L2.MissPenalty // the LLC still holds the line
	for round := 0; round < 2000; round++ {
		h.DataAccess(0, addr, 8, false) // core 0 holds the line again
		write <- struct{}{}
		<-written
		before := h.Counts(0)
		stall := h.DataAccess(0, addr, 8, false)
		if d := h.Counts(0).Sub(before); stall != want || d.L1DMiss != 1 || d.L2DMiss != 1 || d.Invalidations != 2 {
			close(write)
			<-done
			t.Fatalf("round %d: the access after a posted invalidation stalled %d (want %d) with counts %+v: the inbox was not drained",
				round, stall, want, d)
		}
	}
	close(write)
	<-done
}

// TestPostedInvalidationStopsTracerFastPath is the same handoff through the
// per-core tracers engine code uses in concurrent mode, where a read of the
// line its L1D set used last is answered by the tracer without DataAccess:
// core 1 reads a line twice (the second read takes that path), core 0 writes
// it from its own goroutine, and core 1's next read must find the
// invalidation, though the line is still the MRU of its set until the inbox
// is drained.
func TestPostedInvalidationStopsTracerFastPath(t *testing.T) {
	m := NewMachine(smallHierCfg(2))
	m.SetConcurrent(true)
	v0, v1 := m.Arena.View(m.TracerFor(0)), m.Arena.View(m.TracerFor(1))
	m.Arena.EnableTracing(true)
	addr := simmem.DataBase
	write, written := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range write {
			v0.WriteU64(addr, 1) // posts to core 1's inbox
			written <- struct{}{}
		}
	}()
	defer func() {
		close(write)
		<-done
	}()
	for round := 0; round < 500; round++ {
		v1.ReadU64(addr)
		before := m.Hier.Counts(1)
		v1.ReadU64(addr)
		if d := m.Hier.Counts(1).Sub(before); d.L1DAcc != 1 || d.L1DMiss != 0 {
			t.Fatalf("round %d: a repeated read counted %+v, want one L1D hit", round, d)
		}
		write <- struct{}{}
		<-written
		before = m.Hier.Counts(1)
		v1.ReadU64(addr)
		if d := m.Hier.Counts(1).Sub(before); d.L1DMiss != 1 || d.Invalidations == 0 {
			t.Fatalf("round %d: the read after a posted invalidation counted %+v: it hit the invalidated line", round, d)
		}
	}
}

// TestConcurrentWriteExclusivity checks invariant 2 of the serial coherence
// suite in concurrent mode: after all cores quiesce, a line written last by
// one core is held exclusively (other cores' private copies invalidated,
// remote LLC copies dropped). A final single-threaded write round pins the
// expected owner of each line.
func TestConcurrentWriteExclusivity(t *testing.T) {
	const cores, sockets = 4, 2
	h := NewHierarchy(numaTestCfg(cores, sockets))
	h.SetConcurrent(true)
	const lines = 64
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &testRand{s: uint64(c) + 99}
			for i := 0; i < 5000; i++ {
				mtHammerStep(h, c, r, lines, 32)
			}
		}(c)
	}
	wg.Wait()
	h.Quiesce()
	// Deterministic final owners: core (id % cores) rewrites line id.
	for id := uint64(0); id < lines; id++ {
		owner := int(id % cores)
		h.DataAccess(owner, simmem.DataBase+simmem.Addr(id)*LineBytes, 8, true)
	}
	h.Quiesce()
	if err := h.CheckCoherent(); err != nil {
		t.Fatalf("coherence: %v", err)
	}
	for id := uint64(0); id < lines; id++ {
		lineID := uint64(simmem.DataBase)>>LineShift + id
		checkWriteExclusive(t, h, lineID, int(id%cores), int(id))
	}
}
