package core

import (
	"testing"

	"oltpsim/internal/simmem"
)

// This file is the coherence invariant suite: a table-driven section with
// explicit cross-core/cross-socket scenarios, and a randomized checker that
// asserts directory/cache agreement after every step. The directory is
// maintained exactly (evictions clear sharer bits), so the invariants are
// equalities, not superset checks:
//
//  1. for every data line, each socket's directory mask equals the set of
//     that socket's cores holding the line in L1D or L2;
//  2. after a write, the writer's core is the only private-cache holder and
//     no other socket's LLC holds the line;
//  3. per-core miss counters are conserved: L1DAcc >= L1DMiss >= L2DMiss >=
//     LLCDMiss, and the remote serve counters never exceed the LLC misses
//     they classify.

// testRand is a local splitmix64 (the workload package cannot be imported
// from an in-package core test without a cycle).
type testRand struct{ s uint64 }

func (r *testRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func numaTestCfg(cores, sockets int) HierarchyConfig {
	cfg := smallHierCfg(cores)
	cfg.Sockets = sockets
	cfg.RemoteLLCPenalty = 100
	cfg.RemoteDRAMPenalty = 300
	cfg.XInvalidatePenalty = 50
	return cfg
}

// privateHolders returns the mask of cores holding id in L1D or L2,
// restricted to socket s.
func privateHolders(h *Hierarchy, s int, id uint64) uint64 {
	var mask uint64
	lo, hi := h.socketRange(s)
	for c := lo; c < hi; c++ {
		if h.cores[c].l1d.Probe(id) || h.cores[c].l2.Probe(id) {
			mask |= uint64(1) << uint(c)
		}
	}
	return mask
}

// checkDirectoryExact asserts invariant 1 for every touched line.
func checkDirectoryExact(t *testing.T, h *Hierarchy, touched map[uint64]bool, step int) {
	t.Helper()
	for id := range touched {
		for s := 0; s < h.nSock; s++ {
			want := privateHolders(h, s, id)
			if h.dirs == nil {
				continue
			}
			if got := h.dirs[s].get(id); got != want {
				t.Fatalf("step %d: line %#x socket %d: directory mask %#x, private caches hold %#x",
					step, id, s, got, want)
			}
		}
	}
}

// checkCounters asserts invariant 3 for every core.
func checkCounters(t *testing.T, h *Hierarchy, step int) {
	t.Helper()
	for c := range h.counts {
		ct := h.counts[c]
		if ct.L1DAcc < ct.L1DMiss || ct.L1DMiss < ct.L2DMiss || ct.L2DMiss < ct.LLCDMiss {
			t.Fatalf("step %d: core %d miss counts not conserved: %+v", step, c, ct)
		}
		if ct.LLCDRemoteLLC+ct.LLCDRemoteDRAM > ct.LLCDMiss {
			t.Fatalf("step %d: core %d remote serves exceed LLC misses: %+v", step, c, ct)
		}
		if ct.LLCIRemoteLLC > ct.LLCIMiss {
			t.Fatalf("step %d: core %d remote I-serves exceed LLC-I misses: %+v", step, c, ct)
		}
	}
}

// checkWriteExclusive asserts invariant 2 after core wrote line id.
func checkWriteExclusive(t *testing.T, h *Hierarchy, id uint64, core int, step int) {
	t.Helper()
	ws := h.sockOf[core]
	for s := 0; s < h.nSock; s++ {
		mask := privateHolders(h, s, id)
		if s == ws {
			if mask != uint64(1)<<uint(core) {
				t.Fatalf("step %d: after write by core %d, socket %d private holders %#x, want only writer",
					step, core, s, mask)
			}
			continue
		}
		if mask != 0 {
			t.Fatalf("step %d: after write by core %d, remote socket %d private holders %#x, want none",
				step, core, s, mask)
		}
		if h.llcs[s].Probe(id) {
			t.Fatalf("step %d: after write by core %d, remote socket %d LLC still holds the line",
				step, core, s)
		}
	}
}

// TestCoherenceScenarios is the table-driven half: explicit sequences with
// exact expected directory and counter outcomes.
func TestCoherenceScenarios(t *testing.T) {
	addr := simmem.DataBase
	id := uint64(addr) >> LineShift

	t.Run("same-socket write invalidates reader", func(t *testing.T) {
		h := NewHierarchy(numaTestCfg(2, 1))
		h.DataAccess(0, addr, 8, false)
		h.DataAccess(1, addr, 8, true)
		if got := h.Counts(0).Invalidations; got == 0 {
			t.Fatal("write over a shared line cost the reader no copies")
		}
		if got := h.Counts(1).Invalidations; got != 0 {
			t.Fatalf("writer counted %d invalidations, want 0", got)
		}
		if got := h.Counts(1).XInvalidations; got != 0 {
			t.Fatalf("single-socket write recorded %d cross-socket invalidations", got)
		}
		checkWriteExclusive(t, h, id, 1, 0)
		checkDirectoryExact(t, h, map[uint64]bool{id: true}, 0)
	})

	t.Run("cross-socket write purges remote socket", func(t *testing.T) {
		h := NewHierarchy(numaTestCfg(4, 2))
		h.DataAccess(0, addr, 8, false) // socket 0 core caches the line
		h.DataAccess(1, addr, 8, false)
		stall := h.DataAccess(2, addr, 8, true) // socket 1 core takes ownership
		if got := h.Counts(2).XInvalidations; got != 1 {
			t.Fatalf("XInvalidations = %d, want 1", got)
		}
		if stall != 50 {
			t.Fatalf("cross-socket write stall = %d, want XInvalidatePenalty 50", stall)
		}
		checkWriteExclusive(t, h, id, 2, 0)
		checkDirectoryExact(t, h, map[uint64]bool{id: true}, 0)
	})

	t.Run("read sharing spans sockets without invalidation", func(t *testing.T) {
		h := NewHierarchy(numaTestCfg(4, 2))
		h.DataAccess(0, addr, 8, false)
		h.DataAccess(2, addr, 8, false)
		if got := privateHolders(h, 0, id) | privateHolders(h, 1, id); got != 0b0101 {
			t.Fatalf("read-shared holders = %#b, want cores 0 and 2", got)
		}
		var inv uint64
		for c := 0; c < 4; c++ {
			inv += h.Counts(c).Invalidations + h.Counts(c).XInvalidations
		}
		if inv != 0 {
			t.Fatalf("read sharing caused %d invalidations", inv)
		}
		checkDirectoryExact(t, h, map[uint64]bool{id: true}, 0)
	})
}

// TestCoherenceInvariantsRandomized drives random reads and writes from
// random cores over a line pool sized to force private-cache evictions, and
// re-checks every invariant after every step, for single-core, single-socket
// multicore, and two-socket configurations up to the 64-core cap.
func TestCoherenceInvariantsRandomized(t *testing.T) {
	cases := []struct {
		name    string
		cores   int
		sockets int
		steps   int
	}{
		{"1core", 1, 1, 1500},
		{"2core-1socket", 2, 1, 1500},
		{"4core-2socket", 4, 2, 1500},
		{"64core-2socket", 64, 2, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHierarchy(numaTestCfg(tc.cores, tc.sockets))
			if tc.cores == 1 && h.dirs != nil {
				t.Fatal("single-core hierarchy allocated a coherence directory")
			}
			rng := &testRand{s: 0xc0ffee}
			base := uint64(simmem.DataBase) >> LineShift
			// 96 distinct lines against a 16-line L1D and 128-line L2:
			// steady-state evictions at both private levels.
			const poolSize = 96
			touched := make(map[uint64]bool)
			for step := 0; step < tc.steps; step++ {
				c := rng.intn(tc.cores)
				id := base + uint64(rng.intn(poolSize)*3)
				write := rng.intn(3) == 0
				h.DataAccess(c, simmem.Addr(id<<LineShift), 8, write)
				touched[id] = true
				if write {
					checkWriteExclusive(t, h, id, c, step)
				}
				checkDirectoryExact(t, h, touched, step)
				checkCounters(t, h, step)
			}
			if tc.cores == 1 {
				if got := h.Counts(0).Invalidations + h.Counts(0).XInvalidations; got != 0 {
					t.Fatalf("single-core run recorded %d invalidations", got)
				}
			}
		})
	}
}
