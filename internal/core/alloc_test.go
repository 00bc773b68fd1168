package core

import (
	"testing"

	"oltpsim/internal/simmem"
)

// The simulator hot path — a traced arena access flowing through
// the machine's tracer, Hierarchy.DataAccess and the per-level cache lookups —
// must not allocate: it runs once per simulated memory access, tens of
// millions of times per figure. These tests gate the zero-allocation steady
// state established by the measurement-window overhaul.

func TestTracedReadWriteU64Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; gate runs without -race")
	}
	m := NewMachine(IvyBridge(1))
	const span = 1 << 20
	base := m.Arena.AllocData(span, 64)
	// Materialize every backing page before measuring.
	for off := simmem.Addr(0); off < span; off += 4096 {
		m.Arena.WriteU64(base+off, uint64(off))
	}
	m.Arena.EnableTracing(true)

	off := simmem.Addr(0)
	avg := testing.AllocsPerRun(1000, func() {
		m.Arena.WriteU64(base+off, 1)
		_ = m.Arena.ReadU64(base + off)
		off = (off + 8192 + 8) % (span - 8)
	})
	if avg != 0 {
		t.Errorf("traced ReadU64/WriteU64 pair allocates %.1f objects/op, want 0", avg)
	}
}

// TestTracedCoherentWriteAllocs drives writes from two cores through the
// coherence directory (invalidations included) and requires the steady state
// to stay allocation-free once the directory pages exist.
func TestTracedCoherentWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; gate runs without -race")
	}
	m := NewMachine(IvyBridge(2))
	const span = 1 << 20
	base := m.Arena.AllocData(span, 64)
	m.Arena.EnableTracing(true)
	// Warm: touch the span from both cores so directory pages and backing
	// pages are materialized.
	for core := 0; core < 2; core++ {
		m.SetCurrent(core)
		for off := simmem.Addr(0); off < span; off += 64 {
			m.Arena.WriteU64(base+off, uint64(off))
		}
	}

	off := simmem.Addr(0)
	core := 0
	avg := testing.AllocsPerRun(1000, func() {
		m.SetCurrent(core)
		m.Arena.WriteU64(base+off, 2)
		_ = m.Arena.ReadU64(base + off)
		core = 1 - core
		off = (off + 4096 + 64) % (span - 8)
	})
	if avg != 0 {
		t.Errorf("coherent traced write allocates %.1f objects/op, want 0", avg)
	}
}

// TestTracedNUMAWriteAllocs is the two-socket twin: writes ping-pong between
// cores on different sockets of the full IvyBridge topology, exercising
// cross-socket invalidations, remote-LLC probes, the home map default and the
// eviction-exact directory maintenance — all of which must stay off the Go
// allocator once directory and backing pages exist.
func TestTracedNUMAWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; gate runs without -race")
	}
	m := NewMachine(IvyBridge2S())
	if m.Hier.Sockets() != 2 {
		t.Fatalf("IvyBridge2S machine has %d sockets", m.Hier.Sockets())
	}
	const span = 1 << 20
	base := m.Arena.AllocData(span, 64)
	m.Arena.EnableTracing(true)
	// One core per socket; warm the span from both so directory pages,
	// backing pages and both sockets' LLC sets are materialized.
	cores := [2]int{0, IvyBridgeCoresPerSocket}
	for _, c := range cores {
		m.SetCurrent(c)
		for off := simmem.Addr(0); off < span; off += 64 {
			m.Arena.WriteU64(base+off, uint64(off))
		}
	}

	off := simmem.Addr(0)
	turn := 0
	avg := testing.AllocsPerRun(1000, func() {
		m.SetCurrent(cores[turn])
		m.Arena.WriteU64(base+off, 3) // cross-socket ownership transfer
		_ = m.Arena.ReadU64(base + off)
		turn = 1 - turn
		off = (off + 4096 + 64) % (span - 8)
	})
	if avg != 0 {
		t.Errorf("cross-socket traced write allocates %.1f objects/op, want 0", avg)
	}
}
