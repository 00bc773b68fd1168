package core

import (
	"math"
	"oltpsim/internal/simmem"
	"testing"
)

func measurementFixture() Measurement {
	cfg := IvyBridge(1)
	var d Snapshot
	d.Instructions = 100_000
	d.TxCount = 100
	d.Misses = MissCounts{
		L1IMiss: 1000, L2IMiss: 100, LLCIMiss: 10,
		L1DMiss: 500, L2DMiss: 200, LLCDMiss: 50,
	}
	return Measurement{Delta: d, Config: cfg, BaseCPI: 1.0 / BaseIPC}
}

func TestMeasurementStallMath(t *testing.T) {
	m := measurementFixture()
	st := m.Stalls()
	if st.L1I != 8000 {
		t.Errorf("L1I = %v, want 1000 misses x 8 = 8000", st.L1I)
	}
	if st.L2I != 1900 {
		t.Errorf("L2I = %v, want 100 x 19", st.L2I)
	}
	if st.LLCI != 1670 {
		t.Errorf("LLCI = %v, want 10 x 167", st.LLCI)
	}
	if st.LLCD != 50*167 {
		t.Errorf("LLCD = %v", st.LLCD)
	}
	wantTotal := 8000.0 + 1900 + 1670 + 4000 + 3800 + 8350
	if math.Abs(st.Total()-wantTotal) > 1e-9 {
		t.Errorf("total = %v, want %v", st.Total(), wantTotal)
	}
}

func TestMeasurementIPC(t *testing.T) {
	m := measurementFixture()
	wantCycles := 100_000.0/3.0 + m.Stalls().Total()
	if got := m.Cycles(); math.Abs(got-wantCycles) > 1e-6 {
		t.Errorf("Cycles = %v, want %v", got, wantCycles)
	}
	wantIPC := 100_000.0 / wantCycles
	if got := m.IPC(); math.Abs(got-wantIPC) > 1e-9 {
		t.Errorf("IPC = %v, want %v", got, wantIPC)
	}
	// Sanity: the fixture is stall-heavy, so IPC must be well below BaseIPC.
	if m.IPC() >= BaseIPC {
		t.Errorf("IPC %v not below base %v", m.IPC(), BaseIPC)
	}
}

func TestMeasurementPerKIAndPerTx(t *testing.T) {
	m := measurementFixture()
	ki := m.StallsPerKI()
	if math.Abs(ki.L1I-80) > 1e-9 { // 8000 cycles / 100 kI
		t.Errorf("L1I per kI = %v, want 80", ki.L1I)
	}
	tx := m.StallsPerTx()
	if math.Abs(tx.L1I-80) > 1e-9 { // 8000 cycles / 100 tx
		t.Errorf("L1I per tx = %v, want 80", tx.L1I)
	}
	if got := m.InstructionsPerTx(); got != 1000 {
		t.Errorf("instructions per tx = %v, want 1000", got)
	}
}

func TestMeasurementZeroWindowIsSafe(t *testing.T) {
	m := Measurement{Config: IvyBridge(1), BaseCPI: 1.0 / 3}
	if m.IPC() != 0 || m.StallsPerKI().Total() != 0 || m.StallsPerTx().Total() != 0 {
		t.Error("zero window produced nonzero metrics")
	}
	if m.TxPerMCycle() != 0 || m.MemStallFraction() != 0 || m.EngineFraction() != 0 {
		t.Error("zero window produced nonzero derived metrics")
	}
}

func TestSnapshotDelta(t *testing.T) {
	cfg := smallHierCfg(1)
	cfg.IPrefetchLines = 0
	m := NewMachine(cfg)
	cs := NewCodeSpace(m.Arena)
	r := cs.NewRegion("work", ModStorage, 8192, 4)
	m.Arena.EnableTracing(true)
	a := m.Arena.AllocData(4096, 64)

	before := m.Snapshot()
	cpu := m.CPUs[0]
	cpu.Exec(r, 1000)
	for i := 0; i < 16; i++ {
		m.Arena.ReadU64(a + simmem.Addr(i*64))
	}
	cpu.TxCount++
	after := m.Snapshot()

	d := after.Sub(before)
	if d.Instructions != 1000 {
		t.Errorf("delta instructions = %d", d.Instructions)
	}
	if d.TxCount != 1 {
		t.Errorf("delta tx = %d", d.TxCount)
	}
	if d.Misses.L1DMiss != 16 {
		t.Errorf("delta L1D misses = %d, want 16 cold lines", d.Misses.L1DMiss)
	}
	if d.Modules[ModStorage].Instructions != 1000 {
		t.Errorf("module delta = %+v", d.Modules[ModStorage])
	}

	// A second window over already-warm data must show no new data misses.
	before2 := m.Snapshot()
	for i := 0; i < 16; i++ {
		m.Arena.ReadU64(a + simmem.Addr(i*64))
	}
	d2 := m.Snapshot().Sub(before2)
	if d2.Misses.L1DMiss != 0 {
		t.Errorf("warm window L1D misses = %d, want 0", d2.Misses.L1DMiss)
	}
}

func TestEngineFraction(t *testing.T) {
	cfg := smallHierCfg(1)
	m := NewMachine(cfg)
	cs := NewCodeSpace(m.Arena)
	parser := cs.NewRegion("parser", ModParser, 4096, 4)
	index := cs.NewRegion("index", ModIndex, 4096, 4)

	before := m.Snapshot()
	cpu := m.CPUs[0]
	cpu.Exec(parser, 3000)
	cpu.Exec(index, 1000)
	meas := NewMeasurement(before, m.Snapshot(), cfg, 1.0/BaseIPC)

	frac := meas.EngineFraction()
	if frac <= 0 || frac >= 1 {
		t.Fatalf("engine fraction = %v, want in (0,1)", frac)
	}
	// Instruction-wise the engine share is 25%; stalls shift it a little but
	// it must stay well below half here.
	if frac > 0.5 {
		t.Errorf("engine fraction = %v, want < 0.5 for parser-heavy run", frac)
	}
}

func TestModuleInsideEngineSets(t *testing.T) {
	inside := []Module{ModPlanExec, ModCompiledProc, ModTxnMgr, ModLockMgr,
		ModMVCC, ModBufferPool, ModIndex, ModStorage, ModLogging}
	outside := []Module{ModOther, ModNetwork, ModParser, ModOptimizer, ModDispatch}
	for _, m := range inside {
		if !m.InsideEngine() {
			t.Errorf("%v should be inside the engine", m)
		}
	}
	for _, m := range outside {
		if m.InsideEngine() {
			t.Errorf("%v should be outside the engine", m)
		}
	}
	if len(inside)+len(outside) != int(NumModules) {
		t.Errorf("module sets do not cover all %d modules", NumModules)
	}
}

func TestModuleString(t *testing.T) {
	if ModParser.String() != "parser" || ModIndex.String() != "index" {
		t.Error("module names wrong")
	}
	if Module(99).String() == "" {
		t.Error("out-of-range module name empty")
	}
}
