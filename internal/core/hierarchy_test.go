package core

import (
	"fmt"
	"strings"
	"testing"

	"oltpsim/internal/simmem"
)

func smallHierCfg(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores:          cores,
		L1I:            CacheGeom{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, MissPenalty: 8},
		L1D:            CacheGeom{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, MissPenalty: 8},
		L2:             CacheGeom{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 4, MissPenalty: 19},
		LLC:            CacheGeom{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 8, MissPenalty: 167},
		IPrefetchLines: 0,
		Coherence:      cores > 1,
	}
}

func TestDataAccessMissPath(t *testing.T) {
	h := NewHierarchy(smallHierCfg(1))
	addr := simmem.DataBase

	// Cold: misses at every level: 8 + 19 + 167.
	if got := h.DataAccess(0, addr, 8, false); got != 194 {
		t.Errorf("cold access stall = %d, want 194", got)
	}
	// Hot: L1D hit, no stalls.
	if got := h.DataAccess(0, addr, 8, false); got != 0 {
		t.Errorf("hot access stall = %d, want 0", got)
	}
	ct := h.Counts(0)
	if ct.L1DMiss != 1 || ct.L2DMiss != 1 || ct.LLCDMiss != 1 {
		t.Errorf("miss counts = %+v", ct)
	}
	if ct.L1DAcc != 2 {
		t.Errorf("L1D accesses = %d, want 2", ct.L1DAcc)
	}
}

func TestDataAccessSpansLines(t *testing.T) {
	h := NewHierarchy(smallHierCfg(1))
	// 100 bytes starting 10 bytes before a line boundary touches 3 lines.
	addr := simmem.DataBase + 64 - 10
	h.DataAccess(0, addr, 100, false)
	if got := h.Counts(0).L1DAcc; got != 3 {
		t.Errorf("lines touched = %d, want 3", got)
	}
}

func TestFetchCodeL1IAndPenalties(t *testing.T) {
	h := NewHierarchy(smallHierCfg(1))
	addr := simmem.CodeBase
	// 4 cold lines: each 8+19+167.
	if got := h.FetchCode(0, addr, 4); got != 4*194 {
		t.Errorf("cold fetch stall = %d, want %d", got, 4*194)
	}
	if got := h.FetchCode(0, addr, 4); got != 0 {
		t.Errorf("warm fetch stall = %d, want 0", got)
	}
	ct := h.Counts(0)
	if ct.L1IMiss != 4 || ct.LLCIMiss != 4 {
		t.Errorf("counts = %+v", ct)
	}
}

func TestInstructionPrefetchReducesMisses(t *testing.T) {
	cfg := smallHierCfg(1)
	noPf := NewHierarchy(cfg)
	cfg.IPrefetchLines = 2
	pf := NewHierarchy(cfg)

	const lines = 16
	noPf.FetchCode(0, simmem.CodeBase, lines)
	pf.FetchCode(0, simmem.CodeBase, lines)

	mNo := noPf.Counts(0).L1IMiss
	mPf := pf.Counts(0).L1IMiss
	if mNo != lines {
		t.Fatalf("no-prefetch misses = %d, want %d", mNo, lines)
	}
	if mPf >= mNo {
		t.Errorf("prefetch did not reduce misses: %d >= %d", mPf, mNo)
	}
	// With depth 2, a sequential stream should miss roughly every 3rd line.
	if mPf > lines/2 {
		t.Errorf("prefetch misses = %d, want <= %d for depth-2 sequential", mPf, lines/2)
	}
	if pf.Counts(0).IPrefetches == 0 {
		t.Error("prefetch counter not incremented")
	}
}

func TestSharedLLCAcrossCores(t *testing.T) {
	h := NewHierarchy(smallHierCfg(2))
	addr := simmem.DataBase
	h.DataAccess(0, addr, 8, false) // core 0 pulls line into shared LLC
	// Core 1 misses its private caches but hits the shared LLC: 8 + 19.
	if got := h.DataAccess(1, addr, 8, false); got != 27 {
		t.Errorf("core-1 stall = %d, want 27 (LLC hit)", got)
	}
	if got := h.Counts(1).LLCDMiss; got != 0 {
		t.Errorf("core-1 LLC misses = %d, want 0", got)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	h := NewHierarchy(smallHierCfg(2))
	addr := simmem.DataBase

	h.DataAccess(0, addr, 8, false) // core 0 caches the line
	h.DataAccess(1, addr, 8, true)  // core 1 writes: invalidates core 0's copy

	// The core that loses its copies counts them; the writer counts none.
	if got := h.Counts(0).Invalidations; got == 0 {
		t.Fatal("write to shared line caused no invalidations")
	}
	if got := h.Counts(1).Invalidations; got != 0 {
		t.Errorf("writer counted %d invalidations, want 0", got)
	}
	// Core 0 must now miss its private caches (line was invalidated) but can
	// hit the shared LLC.
	stall := h.DataAccess(0, addr, 8, false)
	if stall == 0 {
		t.Error("core 0 hit a line that should have been invalidated")
	}
	if got := h.Counts(0).LLCDMiss; got != 1 {
		t.Errorf("core 0 LLC misses = %d, want 1 (only the original cold miss)", got)
	}
}

func TestNoCoherenceSingleCore(t *testing.T) {
	h := NewHierarchy(smallHierCfg(1))
	addr := simmem.DataBase
	h.DataAccess(0, addr, 8, true)
	h.DataAccess(0, addr, 8, true)
	if got := h.Counts(0).Invalidations; got != 0 {
		t.Errorf("single-core run recorded %d invalidations", got)
	}
}

func TestMaxCoresBoundary(t *testing.T) {
	// The cap is tied to the directory sharer-mask word: exactly MaxCores
	// must construct, one more must panic.
	cfg := numaTestCfg(MaxCores, 2)
	h := NewHierarchy(cfg)
	if h.Cores() != MaxCores {
		t.Fatalf("Cores() = %d, want %d", h.Cores(), MaxCores)
	}
	// The top core's sharer bit must fit the mask word.
	addr := simmem.DataBase
	h.DataAccess(MaxCores-1, addr, 8, false)
	id := uint64(addr) >> LineShift
	s := h.SocketOf(MaxCores - 1)
	if got := h.dirs[s].get(id); got != uint64(1)<<(MaxCores-1) {
		t.Fatalf("core %d sharer bit = %#x", MaxCores-1, got)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("NewHierarchy accepted %d cores", MaxCores+1)
		}
	}()
	cfg.Cores = MaxCores + 1
	NewHierarchy(cfg)
}

// TestL1IIndexBoundaries pins the edges the L1I's and L2's index creates:
// its order word caps either level at 16 ways, and the code lines it
// indexes end at simmem.CodeLimit, so a fetch, or its prefetch tail, past
// that bound is refused by address rather than indexed.
func TestL1IIndexBoundaries(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	cfg := smallHierCfg(1)
	cfg.L1I, cfg.L2 = geomOf(4, 16), geomOf(8, 16)
	h := NewHierarchy(cfg)
	perLine := cfg.L1I.MissPenalty + cfg.L2.MissPenalty + cfg.LLC.MissPenalty
	if got := h.FetchCode(0, simmem.CodeBase, 4*16+1); got != (4*16+1)*perLine {
		t.Errorf("16-way L1I and L2 cold sweep stall = %d, want %d", got, (4*16+1)*perLine)
	}
	for _, level := range []string{"L1I", "L2"} {
		bad := cfg
		if level == "L1I" {
			bad.L1I = geomOf(4, 17)
		} else {
			bad.L2 = geomOf(4, 17)
		}
		if msg := panicOf(func() { NewHierarchy(bad) }); !strings.Contains(msg, level+" needs") || !strings.Contains(msg, "16 ways") {
			t.Errorf("NewHierarchy with a 17-way %s: panic %q, want one naming the level and the 16-way limit", level, msg)
		}
	}

	type run struct {
		addr simmem.Addr
		n    int
	}
	refused := func(h *Hierarchy, runs ...run) {
		t.Helper()
		for _, r := range runs {
			want := fmt.Sprintf("%#x", uint64(r.addr))
			msg := panicOf(func() { h.FetchCode(0, r.addr, r.n) })
			if !strings.Contains(msg, want) || !strings.Contains(msg, "code segment") {
				t.Errorf("FetchCode(%#x, %d): panic %q, want one naming the address and the code segment", uint64(r.addr), r.n, msg)
			}
		}
	}
	// The last case starts inside the segment and runs one line past it.
	refused(h, run{simmem.CodeBase - LineBytes, 1}, run{simmem.DataBase, 1}, run{simmem.DataBase + 4096, 1},
		run{0, 1}, run{simmem.CodeLimit, 1}, run{simmem.CodeLimit - LineBytes, 2})
	if ct := h.Counts(0); ct.L1IAcc != 4*16+1 {
		t.Errorf("refused fetches moved the counters: %+v", ct)
	}

	// The top of the old, unbounded segment: once indexed, the where arrays
	// would have been sized to about 2^40 bytes, an out-of-memory kill.
	refused(NewHierarchy(smallHierCfg(2)), run{simmem.DataBase - LineBytes, 1})

	// With prefetch, the last lines below the bound are refused when their
	// prefetch tail crosses it: the tail would fill lines past the code
	// segment into the L1I and the L2. The line before it is served, and no
	// line at or past the bound is resident afterwards.
	pcfg := smallHierCfg(2)
	pcfg.IPrefetchLines = 2
	ph := NewHierarchy(pcfg)
	refused(ph, run{simmem.CodeLimit - LineBytes, 1}, run{simmem.CodeLimit - 2*LineBytes, 1}, run{simmem.CodeLimit - 3*LineBytes, 2})
	want := pcfg.L1I.MissPenalty + pcfg.L2.MissPenalty + pcfg.LLC.MissPenalty
	if got := ph.FetchCode(0, simmem.CodeLimit-3*LineBytes, 1); got != want {
		t.Errorf("fetch of the last line whose tail fits: stall %d, want %d", got, want)
	}
	limit := uint64(simmem.CodeLimit) >> LineShift
	for level, c := range map[string]*wayCache{"L1I": ph.cores[0].l1i, "L2": ph.cores[0].l2} {
		c.Lines(func(id uint64) {
			if id >= limit {
				t.Errorf("%s holds line %#x, at or past the code segment's end", level, id)
			}
		})
		if got := uint64(len(c.where)); got != codeLineLimit {
			t.Errorf("%s where covers %d code lines, want the bound, %d", level, got, codeLineLimit)
		}
	}
	if ct := ph.Counts(0); ct.L1IAcc != 1 || ct.IPrefetches != 2 {
		t.Errorf("counters after one served fetch: %+v", ct)
	}
}

func TestIvyBridgeTopology(t *testing.T) {
	for _, tc := range []struct{ cores, sockets int }{
		{1, 1}, {4, 1}, {10, 1}, {12, 2}, {20, 2},
	} {
		if got := IvyBridge(tc.cores).Sockets; got != tc.sockets {
			t.Errorf("IvyBridge(%d).Sockets = %d, want %d", tc.cores, got, tc.sockets)
		}
	}
	full := IvyBridge2S()
	if full.Cores != 20 || full.Sockets != 2 {
		t.Fatalf("IvyBridge2S = %d cores / %d sockets, want 20/2", full.Cores, full.Sockets)
	}
	h := NewHierarchy(full)
	if h.SocketOf(9) != 0 || h.SocketOf(10) != 1 || h.SocketOf(19) != 1 {
		t.Errorf("socket mapping: core 9 -> %d, core 10 -> %d, core 19 -> %d",
			h.SocketOf(9), h.SocketOf(10), h.SocketOf(19))
	}
}

func TestRemoteLLCForward(t *testing.T) {
	h := NewHierarchy(numaTestCfg(4, 2))
	addr := simmem.DataBase
	h.DataAccess(0, addr, 8, false) // socket 0 pulls the line into its LLC
	// Core 2 (socket 1) misses everything locally; socket 0's LLC serves the
	// fill at the cross-socket forward cost: 8 + 19 + 100.
	if got := h.DataAccess(2, addr, 8, false); got != 127 {
		t.Errorf("cross-socket forward stall = %d, want 127", got)
	}
	ct := h.Counts(2)
	if ct.LLCDMiss != 1 || ct.LLCDRemoteLLC != 1 || ct.LLCDRemoteDRAM != 0 {
		t.Errorf("counts = %+v, want one LLC miss served by the remote LLC", ct)
	}
}

func TestRemoteDRAMHome(t *testing.T) {
	h := NewHierarchy(numaTestCfg(4, 2))
	addr := simmem.DataBase

	h.ClaimHome(addr, 64, 1)
	if h.HomeOf(addr) != 1 {
		t.Fatalf("claimed home = %d, want 1", h.HomeOf(addr))
	}
	// Cold read from socket 0 of a line homed on socket 1: 8 + 19 + 300.
	if got := h.DataAccess(0, addr, 8, false); got != 327 {
		t.Errorf("remote-DRAM fill stall = %d, want 327", got)
	}
	if got := h.Counts(0).LLCDRemoteDRAM; got != 1 {
		t.Errorf("LLCDRemoteDRAM = %d, want 1", got)
	}

	// A locally homed line fills at the local cost: 8 + 19 + 167.
	local := addr + 64
	h.ClaimHome(local, 64, 0)
	if got := h.DataAccess(0, local, 8, false); got != 194 {
		t.Errorf("local-DRAM fill stall = %d, want 194", got)
	}
	if got := h.Counts(0).LLCDRemoteDRAM; got != 1 {
		t.Errorf("local fill bumped LLCDRemoteDRAM to %d", got)
	}
}

func TestCrossSocketWriteOwnership(t *testing.T) {
	h := NewHierarchy(numaTestCfg(4, 2))
	addr := simmem.DataBase
	h.DataAccess(0, addr, 8, false) // socket 0: private caches + LLC

	// Socket 1 takes ownership: the writer stalls for the transfer, socket
	// 0's private and LLC copies are purged.
	if got := h.DataAccess(2, addr, 8, true); got != 50 {
		t.Errorf("ownership-transfer stall = %d, want 50", got)
	}
	if got := h.Counts(2).XInvalidations; got != 1 {
		t.Errorf("XInvalidations = %d, want 1", got)
	}
	// A second write from the same socket transfers nothing.
	if got := h.DataAccess(3, addr, 8, true); got != 0 {
		t.Errorf("same-socket write stalled %d cycles", got)
	}
	// Core 0 must re-fetch; socket 1's LLC (filled by the writes) serves it.
	if got := h.DataAccess(0, addr, 8, false); got != 127 {
		t.Errorf("post-invalidate read stall = %d, want 127 (remote LLC forward)", got)
	}
}

func TestSingleSocketChargesNoRemote(t *testing.T) {
	h := NewHierarchy(numaTestCfg(2, 1))
	addr := simmem.DataBase
	h.DataAccess(0, addr, 8, false)
	h.DataAccess(1, addr, 8, true)
	h.DataAccess(0, addr, 8, false)
	for c := 0; c < 2; c++ {
		ct := h.Counts(c)
		if ct.LLCDRemoteLLC != 0 || ct.LLCDRemoteDRAM != 0 || ct.XInvalidations != 0 {
			t.Errorf("core %d recorded remote events on one socket: %+v", c, ct)
		}
	}
}

func TestCPUExecAccounting(t *testing.T) {
	m := NewMachine(smallHierCfg(1))
	cs := NewCodeSpace(m.Arena)
	r := cs.NewRegion("probe", ModIndex, 4096, 4)

	cpu := m.CPUs[0]
	cpu.Exec(r, 160) // 160 instr x 4 B = 640 B = 10 lines
	if cpu.Instructions != 160 {
		t.Errorf("instructions = %d", cpu.Instructions)
	}
	if got := m.Hier.Counts(0).L1IAcc; got != 10 {
		t.Errorf("fetched lines = %d, want 10", got)
	}
	istall, dstall := stallSums(cpu)
	if istall == 0 || dstall != 0 {
		t.Errorf("cold execution: I-stalls %d, D-stalls %d; want some and none", istall, dstall)
	}
	ms := cpu.ModuleStats(ModIndex)
	if ms.Instructions != 160 || ms.IStallCycles != istall {
		t.Errorf("module attribution = %+v", ms)
	}
	// The module ledger and the miss counters price the same fetches.
	meas := NewMeasurement(Snapshot{}, m.SnapshotCore(0), m.Hier.Config(), 1)
	if float64(istall) != meas.Stalls().Instr() {
		t.Errorf("module I-stalls %d, miss-priced I-stalls %v", istall, meas.Stalls().Instr())
	}
}

// stallSums returns a CPU's I- and D-stall cycles summed over its modules.
func stallSums(c *CPU) (istall, dstall uint64) {
	for m := Module(0); m < NumModules; m++ {
		ms := c.ModuleStats(m)
		istall += ms.IStallCycles
		dstall += ms.DStallCycles
	}
	return istall, dstall
}

func TestCPUExecCappedByRegionSize(t *testing.T) {
	m := NewMachine(smallHierCfg(1))
	cs := NewCodeSpace(m.Arena)
	r := cs.NewRegion("tiny", ModParser, 128, 4) // 2 lines
	m.CPUs[0].Exec(r, 10000)
	if got := m.Hier.Counts(0).L1IAcc; got != 2 {
		t.Errorf("fetched lines = %d, want region cap 2", got)
	}
}

func TestCPUExecLoopFetchesBodyOnce(t *testing.T) {
	m := NewMachine(smallHierCfg(1))
	cs := NewCodeSpace(m.Arena)
	r := cs.NewRegion("memcmp", ModIndex, 1024, 4)
	cpu := m.CPUs[0]
	cpu.ExecLoop(r, 50, 16) // 800 instructions, body = 1 line
	if cpu.Instructions != 800 {
		t.Errorf("instructions = %d, want 800", cpu.Instructions)
	}
	if got := m.Hier.Counts(0).L1IAcc; got != 1 {
		t.Errorf("fetched lines = %d, want 1 (body fetched once)", got)
	}
}

func TestMachineRoutesDataToCurrentCPU(t *testing.T) {
	m := NewMachine(smallHierCfg(2))
	m.Arena.EnableTracing(true)
	a := m.Arena.AllocData(64, 64)

	m.SetCurrent(1)
	m.Arena.WriteU64(a, 1)
	if got := m.Hier.Counts(1).L1DAcc; got != 1 {
		t.Errorf("core 1 accesses = %d, want 1", got)
	}
	if got := m.Hier.Counts(0).L1DAcc; got != 0 {
		t.Errorf("core 0 accesses = %d, want 0", got)
	}
	// Stores allocate quietly; the subsequent load must hit without stalls.
	if got := m.Arena.ReadU64(a); got != 1 {
		t.Errorf("read back %d", got)
	}
	if _, dstall := stallSums(m.CPUs[1]); dstall != 0 {
		t.Errorf("load after allocating store stalled %d cycles", dstall)
	}
	if got := m.Hier.Counts(1).L1DMiss; got != 0 {
		t.Errorf("store-warmed load missed: %d", got)
	}
}

func TestDataStallModuleAttribution(t *testing.T) {
	m := NewMachine(smallHierCfg(1))
	cs := NewCodeSpace(m.Arena)
	idx := cs.NewRegion("idx", ModIndex, 1024, 4)
	m.Arena.EnableTracing(true)
	a := m.Arena.AllocData(64, 64)

	cpu := m.CPUs[0]
	cpu.Exec(idx, 10) // current module is now ModIndex
	m.Arena.ReadU64(a)
	if got := cpu.ModuleStats(ModIndex).DStallCycles; got == 0 {
		t.Error("data stall not attributed to current module")
	}
}
