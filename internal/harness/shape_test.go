package harness

// Shape tests: each encodes one of the paper's findings (PAPER.md lists
// them) as an executable check against the quick-scale reproduction. They
// assert relative behavior — orderings, ratios, trends — not absolute
// numbers, which is also how the paper's conclusions are stated.

import (
	"flag"
	"sync"
	"testing"

	"oltpsim/internal/systems"
)

var (
	sharedRunnerOnce sync.Once
	sharedRunner     *Runner
)

// runner returns a process-wide runner so all shape tests share cached cells.
// On a full-suite run the first caller prefetches every cell the tests below
// consult through the worker pool, so the package's dominant cost —
// simulating ~40 quick-scale cells — runs GOMAXPROCS-wide instead of
// serially, test by test. A filtered run (`go test -run Foo`) skips the
// prefetch and computes only the cells its tests actually read.
func runner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("shape tests run full experiment cells; skipped with -short")
	}
	sharedRunnerOnce.Do(func() {
		sharedRunner = NewRunner(QuickScale())
		if f := flag.Lookup("test.run"); f == nil || f.Value.String() == "" {
			sharedRunner.RunAll(shapeTestCells(sharedRunner))
		}
	})
	return sharedRunner
}

// shapeTestCells declares the union of cells the shape tests (and the figure
// smoke test in harness_test.go) measure.
func shapeTestCells(r *Runner) []CellSpec {
	var specs []CellSpec
	for _, sys := range systems.All() {
		specs = append(specs,
			r.MicroCell(sys, Size1MB, 1, false, false),
			r.MicroCell(sys, Size100GB, 1, false, false),
			r.MicroCell(sys, Size100GB, 100, false, false),
			r.MicroCell(sys, Size100GB, 1, true, false),
			r.TPCBCell(sys, Size100GB),
			r.TPCCCell(sys, systems.Options{}, Size100GB, 1),
		)
	}
	for _, sys := range []systems.Kind{systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		specs = append(specs, r.MicroCell(sys, Size100GB, 10, false, false))
	}
	for _, sys := range []systems.Kind{systems.VoltDB, systems.HyPer, systems.DBMSM} {
		specs = append(specs, r.MicroCell(sys, Size100GB, 1, false, true))
	}
	for _, c := range dbmsMConfigs() {
		specs = append(specs,
			r.MicroCellOpts(systems.DBMSM, c.Opts, Size100GB, 10, false, 1),
			r.MicroCellOpts(systems.DBMSM, c.Opts, Size100GB, 10, true, 1))
	}
	for _, sys := range mtSystems {
		specs = append(specs, r.MicroCellOpts(sys, systems.Options{}, Size100GB, 1, false, r.Scale.MTCores))
	}
	return specs
}

func microRO(r *Runner, sys systems.Kind, size SizeLabel, rows int) *Result {
	return r.Run(r.MicroCell(sys, size, rows, false, false))
}

// Finding 1: every system's IPC stays well below the machine's 4-wide peak
// (and, except HyPer on cache-resident data, barely reaches ~1), with a large
// share of cycles in memory stalls.
func TestShapeIPCBarelyReachesOne(t *testing.T) {
	r := runner(t)
	for _, sys := range systems.All() {
		res := microRO(r, sys, Size100GB, 1)
		if ipc := res.IPC(); ipc > 1.35 {
			t.Errorf("%s: IPC %.2f at 100GB, expected ~1 or below", sys, ipc)
		}
		if frac := res.MemStallFraction(); frac < 0.30 {
			t.Errorf("%s: memory-stall fraction %.2f, expected a large share", sys, frac)
		}
	}
}

// Finding 2: instruction stalls dominate for every system except HyPer, and
// per transaction DBMS D's instruction stalls are the largest, with the
// in-memory systems below the disk-based ones and HyPer near zero.
func TestShapeInstructionStalls(t *testing.T) {
	r := runner(t)
	iPerTx := map[systems.Kind]float64{}
	for _, sys := range systems.All() {
		res := microRO(r, sys, Size100GB, 1)
		s := res.StallsPerKI()
		if sys == systems.HyPer {
			if s.Instr() > 30 {
				t.Errorf("HyPer: I-stalls %.0f/kI, expected near zero (compilation)", s.Instr())
			}
		} else if s.Instr() < s.Data() {
			t.Errorf("%s: I-stalls %.0f < D-stalls %.0f per kI; instruction side should dominate",
				sys, s.Instr(), s.Data())
		}
		iPerTx[sys] = res.StallsPerTx().Instr()
	}
	if !(iPerTx[systems.DBMSD] > iPerTx[systems.ShoreMT]) {
		t.Errorf("DBMS D I-stalls/tx (%.0f) not above Shore-MT (%.0f)",
			iPerTx[systems.DBMSD], iPerTx[systems.ShoreMT])
	}
	if !(iPerTx[systems.DBMSD] > iPerTx[systems.DBMSM]) {
		t.Errorf("DBMS D I-stalls/tx (%.0f) not above DBMS M (%.0f)",
			iPerTx[systems.DBMSD], iPerTx[systems.DBMSM])
	}
	if !(iPerTx[systems.VoltDB] < iPerTx[systems.ShoreMT]) {
		t.Errorf("VoltDB I-stalls/tx (%.0f) not below Shore-MT (%.0f)",
			iPerTx[systems.VoltDB], iPerTx[systems.ShoreMT])
	}
	if !(iPerTx[systems.HyPer] < iPerTx[systems.VoltDB]/10) {
		t.Errorf("HyPer I-stalls/tx (%.0f) not far below VoltDB (%.0f)",
			iPerTx[systems.HyPer], iPerTx[systems.VoltDB])
	}
	// DBMS M's legacy code keeps it clearly above the other in-memory systems.
	if !(iPerTx[systems.DBMSM] > iPerTx[systems.VoltDB]) {
		t.Errorf("DBMS M I-stalls/tx (%.0f) not above VoltDB (%.0f)",
			iPerTx[systems.DBMSM], iPerTx[systems.VoltDB])
	}
}

// Finding 3: HyPer's LLC data stalls per k-instruction dwarf everyone
// else's on LLC-exceeding data, yet per transaction they are among the
// lowest — the paper's throughput-normalization flip.
func TestShapeHyperInversion(t *testing.T) {
	r := runner(t)
	hyper := microRO(r, systems.HyPer, Size100GB, 1)
	for _, other := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		o := microRO(r, other, Size100GB, 1)
		if !(hyper.StallsPerKI().LLCD > 3*o.StallsPerKI().LLCD) {
			t.Errorf("HyPer LLC-D/kI (%.0f) not >> %s (%.0f)",
				hyper.StallsPerKI().LLCD, other, o.StallsPerKI().LLCD)
		}
	}
	// Per transaction HyPer must be at or below the tree-indexed systems.
	for _, other := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB} {
		o := microRO(r, other, Size100GB, 1)
		if !(hyper.StallsPerTx().LLCD < o.StallsPerTx().LLCD) {
			t.Errorf("HyPer LLC-D/tx (%.0f) not below %s (%.0f)",
				hyper.StallsPerTx().LLCD, other, o.StallsPerTx().LLCD)
		}
	}
}

// Finding 4: IPC falls once the working set outgrows the 20MB LLC; the drop
// is most dramatic for HyPer ("twice as high IPC ... when the data fits in
// the last-level cache").
func TestShapeLLCCapacityCliff(t *testing.T) {
	r := runner(t)
	for _, sys := range systems.All() {
		small := microRO(r, sys, Size1MB, 1)
		big := microRO(r, sys, Size100GB, 1)
		if !(small.IPC() >= big.IPC()) {
			t.Errorf("%s: IPC grew with data size: %.2f (1MB) < %.2f (100GB)",
				sys, small.IPC(), big.IPC())
		}
	}
	hyperSmall := microRO(r, systems.HyPer, Size1MB, 1)
	hyperBig := microRO(r, systems.HyPer, Size100GB, 1)
	if ratio := hyperSmall.IPC() / hyperBig.IPC(); ratio < 2 {
		t.Errorf("HyPer LLC cliff ratio = %.2f, want >= 2", ratio)
	}
	// On cache-resident data HyPer clearly leads every other system.
	for _, other := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		o := microRO(r, other, Size1MB, 1)
		if !(hyperSmall.IPC() > 1.3*o.IPC()) {
			t.Errorf("HyPer 1MB IPC %.2f not well above %s %.2f",
				hyperSmall.IPC(), other, o.IPC())
		}
	}
}

// Finding 5: more work per transaction improves instruction locality
// (I-stalls per kI fall for every system) and increases data stalls; data
// stalls per transaction grow roughly linearly with rows probed, with
// Shore-MT's non-cache-conscious index the largest.
func TestShapeWorkPerTransaction(t *testing.T) {
	r := runner(t)
	for _, sys := range systems.All() {
		one := microRO(r, sys, Size100GB, 1)
		hundred := microRO(r, sys, Size100GB, 100)
		if sys != systems.HyPer { // HyPer's I-stalls are ~0 at both ends
			if !(hundred.StallsPerKI().Instr() < one.StallsPerKI().Instr()) {
				t.Errorf("%s: I-stalls/kI did not fall with work: %.0f -> %.0f",
					sys, one.StallsPerKI().Instr(), hundred.StallsPerKI().Instr())
			}
		}
		growth := hundred.StallsPerTx().LLCD / one.StallsPerTx().LLCD
		if growth < 25 || growth > 400 {
			t.Errorf("%s: LLC-D per tx grew %.0fx from 1 to 100 rows, want ~linear (100x)",
				sys, growth)
		}
	}
	shore := microRO(r, systems.ShoreMT, Size100GB, 100)
	for _, other := range []systems.Kind{systems.HyPer, systems.DBMSM} {
		o := microRO(r, other, Size100GB, 100)
		if !(shore.StallsPerTx().LLCD > o.StallsPerTx().LLCD) {
			t.Errorf("Shore-MT LLC-D/tx at 100 rows (%.0f) not above %s (%.0f)",
				shore.StallsPerTx().LLCD, other, o.StallsPerTx().LLCD)
		}
	}
	// In-memory systems lose IPC with more work; DBMS D does not.
	for _, sys := range []systems.Kind{systems.HyPer, systems.DBMSM} {
		one := microRO(r, sys, Size100GB, 1)
		hundred := microRO(r, sys, Size100GB, 100)
		if !(hundred.IPC() < one.IPC()) {
			t.Errorf("%s: IPC did not fall with work: %.2f -> %.2f",
				sys, one.IPC(), hundred.IPC())
		}
	}
	d1 := microRO(r, systems.DBMSD, Size100GB, 1)
	d100 := microRO(r, systems.DBMSD, Size100GB, 100)
	if d100.IPC() < 0.9*d1.IPC() {
		t.Errorf("DBMS D IPC fell with work (%.2f -> %.2f); paper shows a slight rise",
			d1.IPC(), d100.IPC())
	}
}

// Finding 6: the share of time inside the OLTP engine rises with work per
// transaction for DBMS D, VoltDB and DBMS M, and is smallest at one row for
// the legacy-heavy systems.
func TestShapeEngineShare(t *testing.T) {
	r := runner(t)
	for _, sys := range []systems.Kind{systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		prev := -1.0
		for _, rows := range []int{1, 10, 100} {
			res := microRO(r, sys, Size100GB, rows)
			frac := res.EngineFraction()
			if frac <= prev {
				t.Errorf("%s: engine share not increasing at %d rows: %.2f <= %.2f",
					sys, rows, frac, prev)
			}
			prev = frac
		}
	}
	m1 := microRO(r, systems.DBMSM, Size100GB, 1)
	if m1.EngineFraction() > 0.5 {
		t.Errorf("DBMS M engine share at 1 row = %.2f; legacy code should dominate",
			m1.EngineFraction())
	}
}

// Finding 7: TPC-B shows higher IPC than the 1-row micro-benchmark (branch/
// teller/history locality), instruction stalls dominate, and HyPer sits at
// the top of the IPC ranking.
func TestShapeTPCB(t *testing.T) {
	r := runner(t)
	hyper := r.Run(r.TPCBCell(systems.HyPer, Size100GB))
	for _, sys := range systems.All() {
		tb := r.Run(r.TPCBCell(sys, Size100GB))
		micro := microRO(r, sys, Size100GB, 1)
		if !(tb.IPC() > micro.IPC()) {
			t.Errorf("%s: TPC-B IPC %.2f not above 1-row micro %.2f",
				sys, tb.IPC(), micro.IPC())
		}
		if sys != systems.HyPer {
			s := tb.StallsPerKI()
			if !(s.Instr() > 0.8*s.Data()) {
				t.Errorf("%s TPC-B: I-stalls %.0f vs D-stalls %.0f; instructions should dominate",
					sys, s.Instr(), s.Data())
			}
			// HyPer at or near the top of the ranking.
			if tb.IPC() > 1.1*hyper.IPC() {
				t.Errorf("%s TPC-B IPC %.2f well above HyPer %.2f; paper has HyPer highest",
					sys, tb.IPC(), hyper.IPC())
			}
		}
	}
}

// Finding 8: TPC-C's longer transactions and scans cut instruction stalls
// per kI below TPC-B for every system, while HyPer's long-latency data
// stalls come back (lower data locality than TPC-B).
func TestShapeTPCC(t *testing.T) {
	r := runner(t)
	for _, sys := range systems.All() {
		tc := r.Run(r.TPCCCell(sys, systems.Options{}, Size100GB, 1))
		tb := r.Run(r.TPCBCell(sys, Size100GB))
		if sys == systems.HyPer {
			if !(tc.StallsPerKI().LLCD > tb.StallsPerKI().LLCD) {
				t.Errorf("HyPer: TPC-C LLC-D/kI (%.0f) not above TPC-B (%.0f)",
					tc.StallsPerKI().LLCD, tb.StallsPerKI().LLCD)
			}
			continue
		}
		if !(tc.StallsPerKI().Instr() < tb.StallsPerKI().Instr()) {
			t.Errorf("%s: TPC-C I-stalls/kI (%.0f) not below TPC-B (%.0f)",
				sys, tc.StallsPerKI().Instr(), tb.StallsPerKI().Instr())
		}
	}
	// Per transaction, DBMS D's instruction stalls are the highest.
	d := r.Run(r.TPCCCell(systems.DBMSD, systems.Options{}, Size100GB, 1))
	for _, sys := range []systems.Kind{systems.ShoreMT, systems.VoltDB, systems.HyPer, systems.DBMSM} {
		o := r.Run(r.TPCCCell(sys, systems.Options{}, Size100GB, 1))
		if !(d.StallsPerTx().Instr() > o.StallsPerTx().Instr()) {
			t.Errorf("DBMS D TPC-C I-stalls/tx (%.0f) not above %s (%.0f)",
				d.StallsPerTx().Instr(), sys, o.StallsPerTx().Instr())
		}
	}
}

// Finding 9: transaction compilation cuts DBMS M's instruction stalls per
// k-instruction substantially for both index types, and the B-tree pays more
// LLC data stalls than the hash index on the random-probe micro-benchmark.
func TestShapeIndexAndCompilation(t *testing.T) {
	r := runner(t)
	cfgs := dbmsMConfigs()
	get := func(i int) *Result {
		return r.Run(r.MicroCellOpts(systems.DBMSM, cfgs[i].Opts, Size100GB, 10, false, 1))
	}
	hashC, hashNC, btreeC, btreeNC := get(0), get(1), get(2), get(3)

	if !(hashC.StallsPerKI().Instr() < 0.6*hashNC.StallsPerKI().Instr()) {
		t.Errorf("hash: compilation did not cut I-stalls/kI: %.0f vs %.0f",
			hashC.StallsPerKI().Instr(), hashNC.StallsPerKI().Instr())
	}
	if !(btreeC.StallsPerKI().Instr() < 0.6*btreeNC.StallsPerKI().Instr()) {
		t.Errorf("btree: compilation did not cut I-stalls/kI: %.0f vs %.0f",
			btreeC.StallsPerKI().Instr(), btreeNC.StallsPerKI().Instr())
	}
	if !(btreeC.StallsPerKI().LLCD > 1.2*hashC.StallsPerKI().LLCD) {
		t.Errorf("B-tree LLC-D/kI (%.0f) not above hash (%.0f)",
			btreeC.StallsPerKI().LLCD, hashC.StallsPerKI().LLCD)
	}
	if !(btreeC.StallsPerTx().LLCD > 1.3*hashC.StallsPerTx().LLCD) {
		t.Errorf("B-tree LLC-D/tx (%.0f) not above hash (%.0f)",
			btreeC.StallsPerTx().LLCD, hashC.StallsPerTx().LLCD)
	}
}

// Finding 10: the data type does not change the conclusions; the hash-indexed
// DBMS M is insensitive to String vs Long columns.
func TestShapeDataTypes(t *testing.T) {
	r := runner(t)
	mLong := r.Run(r.MicroCell(systems.DBMSM, Size100GB, 1, false, false))
	mStr := r.Run(r.MicroCell(systems.DBMSM, Size100GB, 1, false, true))
	lo, hi := mLong.StallsPerKI().LLCD, mStr.StallsPerKI().LLCD
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 1.5*lo {
		t.Errorf("DBMS M LLC-D/kI differs %.0f vs %.0f between Long and String; hash index should be insensitive",
			mLong.StallsPerKI().LLCD, mStr.StallsPerKI().LLCD)
	}
	// For every system the fundamental picture (IPC < ~1.3 at 100GB) holds
	// for both data types.
	for _, sys := range []systems.Kind{systems.VoltDB, systems.HyPer, systems.DBMSM} {
		str := r.Run(r.MicroCell(sys, Size100GB, 1, false, true))
		if str.IPC() > 1.35 {
			t.Errorf("%s: String-column IPC %.2f breaks the paper's conclusion", sys, str.IPC())
		}
	}
}

// Finding 11: the multi-threaded configuration does not change the
// single-threaded conclusions: IPC stays below ~1.3 and the per-worker stall
// profile stays close to the single-threaded one.
func TestShapeMultiThreaded(t *testing.T) {
	r := runner(t)
	for _, sys := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		st := microRO(r, sys, Size100GB, 1)
		mt := r.Run(r.MicroCellOpts(sys, systems.Options{}, Size100GB, 1, false, r.Scale.MTCores))
		if mt.IPC() > 1.35 {
			t.Errorf("%s MT: IPC %.2f above the paper's ceiling", sys, mt.IPC())
		}
		lo, hi := st.IPC(), mt.IPC()
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 1.6*lo {
			t.Errorf("%s: MT IPC %.2f diverges from ST %.2f", sys, mt.IPC(), st.IPC())
		}
		stS, mtS := st.StallsPerKI(), mt.StallsPerKI()
		if mtS.Instr() < 0.5*stS.Instr() || mtS.Instr() > 2*stS.Instr() {
			t.Errorf("%s: MT I-stalls/kI %.0f diverge from ST %.0f",
				sys, mtS.Instr(), stS.Instr())
		}
	}
}

// The read-write micro-benchmark variant (paper appendix) keeps the same
// qualitative picture: larger instruction footprint than read-only, IPC
// still around or below one.
func TestShapeReadWriteVariant(t *testing.T) {
	r := runner(t)
	for _, sys := range systems.All() {
		rw := r.Run(r.MicroCell(sys, Size100GB, 1, true, false))
		if rw.IPC() > 1.35 {
			t.Errorf("%s RW: IPC %.2f above ceiling", sys, rw.IPC())
		}
		if sys == systems.HyPer {
			continue
		}
		ro := microRO(r, sys, Size100GB, 1)
		if rw.InstructionsPerTx() < ro.InstructionsPerTx() {
			t.Errorf("%s: RW instructions/tx (%.0f) below RO (%.0f); updates do extra work",
				sys, rw.InstructionsPerTx(), ro.InstructionsPerTx())
		}
	}
}
