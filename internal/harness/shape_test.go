package harness

// Shape tests: each encodes one of the paper's findings (PAPER.md lists
// them) as an executable check against the quick-scale reproduction. They
// assert relative behavior — orderings, ratios, trends — not absolute
// numbers, which is also how the paper's conclusions are stated.

import (
	"slices"
	"sync"
	"testing"

	"oltpsim/internal/systems"
)

// sharedRunner is one process-wide runner, so the shape tests — which run in
// parallel — share cached cells: its single-flight cache simulates each cell
// once, and its worker pool keeps the simulations GOMAXPROCS-wide.
var sharedRunner = sync.OnceValue(func() *Runner { return NewRunner(QuickScale()) })

func runner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("shape tests run full experiment cells; skipped with -short")
	}
	return sharedRunner()
}

// figCell returns the measurement behind one row of a simulated figure, found
// by the figure's ID and the row's label cells: a finding's evidence is, by
// construction, a cell some figure renders.
func figCell(t *testing.T, r *Runner, id string, labels ...string) *Result {
	t.Helper()
	f := simFigureByID(id)
	if f == nil {
		t.Fatalf("figure %s is not a simulated figure", id)
	}
	for _, row := range f.rows(r, f.rw) {
		if slices.Equal(row.labels, labels) {
			return r.Run(row.spec)
		}
	}
	t.Fatalf("figure %s has no row %q", id, labels)
	return nil
}

// Finding 1: every system's IPC stays well below the machine's 4-wide peak
// (and, except HyPer on cache-resident data, barely reaches ~1), with a large
// share of cycles in memory stalls.
func TestShapeIPCBarelyReachesOne(t *testing.T) {
	t.Parallel()
	r := runner(t)
	for _, sys := range systems.All() {
		res := figCell(t, r, "3", sys.String())
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
	t.Parallel()
	r := runner(t)
	iPerTx := map[systems.Kind]float64{}
	for _, sys := range systems.All() {
		res := figCell(t, r, "3", sys.String())
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
	t.Parallel()
	r := runner(t)
	hyper := figCell(t, r, "3", "HyPer")
	for _, other := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		o := figCell(t, r, "3", other.String())
		if !(hyper.StallsPerKI().LLCD > 3*o.StallsPerKI().LLCD) {
			t.Errorf("HyPer LLC-D/kI (%.0f) not >> %s (%.0f)",
				hyper.StallsPerKI().LLCD, other, o.StallsPerKI().LLCD)
		}
	}
	// Per transaction HyPer must be at or below the tree-indexed systems.
	for _, other := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB} {
		o := figCell(t, r, "3", other.String())
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
	t.Parallel()
	r := runner(t)
	for _, sys := range systems.All() {
		small := figCell(t, r, "1", sys.String(), "1MB")
		big := figCell(t, r, "3", sys.String())
		if !(small.IPC() >= big.IPC()) {
			t.Errorf("%s: IPC grew with data size: %.2f (1MB) < %.2f (100GB)",
				sys, small.IPC(), big.IPC())
		}
	}
	hyperSmall := figCell(t, r, "1", "HyPer", "1MB")
	hyperBig := figCell(t, r, "3", "HyPer")
	if ratio := hyperSmall.IPC() / hyperBig.IPC(); ratio < 2 {
		t.Errorf("HyPer LLC cliff ratio = %.2f, want >= 2", ratio)
	}
	// On cache-resident data HyPer clearly leads every other system.
	for _, other := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		o := figCell(t, r, "1", other.String(), "1MB")
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
	t.Parallel()
	r := runner(t)
	for _, sys := range systems.All() {
		one := figCell(t, r, "4", sys.String(), "1")
		hundred := figCell(t, r, "4", sys.String(), "100")
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
	shore := figCell(t, r, "4", "Shore-MT", "100")
	for _, other := range []systems.Kind{systems.HyPer, systems.DBMSM} {
		o := figCell(t, r, "4", other.String(), "100")
		if !(shore.StallsPerTx().LLCD > o.StallsPerTx().LLCD) {
			t.Errorf("Shore-MT LLC-D/tx at 100 rows (%.0f) not above %s (%.0f)",
				shore.StallsPerTx().LLCD, other, o.StallsPerTx().LLCD)
		}
	}
	// In-memory systems lose IPC with more work; DBMS D does not.
	for _, sys := range []systems.Kind{systems.HyPer, systems.DBMSM} {
		one := figCell(t, r, "4", sys.String(), "1")
		hundred := figCell(t, r, "4", sys.String(), "100")
		if !(hundred.IPC() < one.IPC()) {
			t.Errorf("%s: IPC did not fall with work: %.2f -> %.2f",
				sys, one.IPC(), hundred.IPC())
		}
	}
	d1 := figCell(t, r, "4", "DBMS D", "1")
	d100 := figCell(t, r, "4", "DBMS D", "100")
	if d100.IPC() < 0.9*d1.IPC() {
		t.Errorf("DBMS D IPC fell with work (%.2f -> %.2f); paper shows a slight rise",
			d1.IPC(), d100.IPC())
	}
}

// Finding 6: the share of time inside the OLTP engine rises with work per
// transaction for DBMS D, VoltDB and DBMS M, and is smallest at one row for
// the legacy-heavy systems.
func TestShapeEngineShare(t *testing.T) {
	t.Parallel()
	r := runner(t)
	for _, sys := range []systems.Kind{systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		prev := -1.0
		for _, rows := range []string{"1", "10", "100"} {
			frac := figCell(t, r, "7", sys.String(), rows).EngineFraction()
			if frac <= prev {
				t.Errorf("%s: engine share not increasing at %s rows: %.2f <= %.2f",
					sys, rows, frac, prev)
			}
			prev = frac
		}
	}
	m1 := figCell(t, r, "7", "DBMS M", "1")
	if m1.EngineFraction() > 0.5 {
		t.Errorf("DBMS M engine share at 1 row = %.2f; legacy code should dominate",
			m1.EngineFraction())
	}
}

// Finding 7: TPC-B shows higher IPC than the 1-row micro-benchmark (branch/
// teller/history locality), instruction stalls dominate, and HyPer sits at
// the top of the IPC ranking.
func TestShapeTPCB(t *testing.T) {
	t.Parallel()
	r := runner(t)
	hyper := figCell(t, r, "8", "HyPer")
	for _, sys := range systems.All() {
		tb := figCell(t, r, "8", sys.String())
		micro := figCell(t, r, "3", sys.String())
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
	t.Parallel()
	r := runner(t)
	for _, sys := range systems.All() {
		tc := figCell(t, r, "10", sys.String())
		tb := figCell(t, r, "8", sys.String())
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
	d := figCell(t, r, "10", "DBMS D")
	for _, sys := range []systems.Kind{systems.ShoreMT, systems.VoltDB, systems.HyPer, systems.DBMSM} {
		o := figCell(t, r, "10", sys.String())
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
	t.Parallel()
	r := runner(t)
	hashC, hashNC := figCell(t, r, "13", "Hash w/ compilation"), figCell(t, r, "13", "Hash w/o compilation")
	btreeC, btreeNC := figCell(t, r, "13", "B-tree w/ compilation"), figCell(t, r, "13", "B-tree w/o compilation")

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
	t.Parallel()
	r := runner(t)
	mLong := figCell(t, r, "15", "DBMS M", "Long")
	mStr := figCell(t, r, "15", "DBMS M", "String")
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
		str := figCell(t, r, "15", sys.String(), "String")
		if str.IPC() > 1.35 {
			t.Errorf("%s: String-column IPC %.2f breaks the paper's conclusion", sys, str.IPC())
		}
	}
}

// Finding 11: the multi-threaded configuration does not change the
// single-threaded conclusions: IPC stays below ~1.3 and the per-worker stall
// profile stays close to the single-threaded one.
func TestShapeMultiThreaded(t *testing.T) {
	t.Parallel()
	r := runner(t)
	for _, sys := range []systems.Kind{systems.ShoreMT, systems.DBMSD, systems.VoltDB, systems.DBMSM} {
		st := figCell(t, r, "3", sys.String())
		mt := figCell(t, r, "16", sys.String())
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
	t.Parallel()
	r := runner(t)
	for _, sys := range systems.All() {
		rw := figCell(t, r, "22", sys.String())
		if rw.IPC() > 1.35 {
			t.Errorf("%s RW: IPC %.2f above ceiling", sys, rw.IPC())
		}
		if sys == systems.HyPer {
			continue
		}
		ro := figCell(t, r, "3", sys.String())
		if rw.InstructionsPerTx() < ro.InstructionsPerTx() {
			t.Errorf("%s: RW instructions/tx (%.0f) below RO (%.0f); updates do extra work",
				sys, rw.InstructionsPerTx(), ro.InstructionsPerTx())
		}
	}
}
