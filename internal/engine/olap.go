package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"oltpsim/internal/catalog"
	"oltpsim/internal/index"
	"oltpsim/internal/simmem"
	"oltpsim/internal/txn"
)

// This file is the analytical execution path: a streaming scan executor and
// aggregate folds over it. Unlike the point-access OLTP path, these
// operators iterate entire tables (or key ranges) through the traced memory
// hierarchy — every heap page, row-store segment, index leaf and version
// chain they touch produces real simulated cache/DRAM/remote-NUMA traffic,
// which is what gives the HTAP figures their data-stall-bound OLAP profile
// (the companion paper "Micro-architectural Analysis of OLAP" observes the
// same inversion on real hardware: scans drown in data stalls while their
// tight loops keep L1I pressure near zero).
//
// The executor state lives on the engine and is recycled across queries (one
// transaction — and one analytic operator — runs at a time on an engine), so
// a scan of millions of rows allocates nothing: row decode goes through
// fixed per-engine buffers, not the transaction scratch arena.

// AggOp selects an aggregate fold.
type AggOp int

// Aggregate operators of the analytical executor.
const (
	AggCount AggOp = iota // COUNT(*)
	AggSum
	AggMin
	AggMax
)

// AggSpec is one aggregate to fold during a scan: Op over column Col (Col is
// ignored for AggCount). Aggregated columns must be Long.
type AggSpec struct {
	Op  AggOp
	Col int
}

// scanState is the engine's recycled streaming-scan executor state. The
// index visit callback is bound once at engine construction (visit), so the
// per-query steady state allocates nothing.
type scanState struct {
	tx *Tx
	t  *Table
	sh *shard
	// toKey is the inclusive encoded upper bound (nil = unbounded).
	toKey   []byte
	err     error
	stopped bool // user callback ended the scan early

	// Row decode buffers for the callback path (reused every row).
	rowBuf catalog.Row
	strBuf []byte

	// pin holds the scan's current heap page across its records: one fix
	// (charge and page-table probe) per page, not per row.
	pin rowPin

	// Mode: either fn (row callback) or specs/accumulators (aggregate).
	aggregating bool
	fn          func(key []byte, row catalog.Row) bool
	specs       []AggSpec
	out         []int64 // non-grouped accumulators (caller-owned)
	rows        int64
	groupBy     int // grouping column (-1 = none)

	// Grouped accumulators: group value -> offset into gaccs; gkeys records
	// first-seen order (sorted before the visit callback runs).
	groups map[int64]int
	gaccs  []int64
	gkeys  []int64

	visit func(key []byte, val uint64) bool // bound to (*Engine).scanVisit
}

// AnalyticScan streams rows of t through fn in key order, shard by shard:
// every shard for ordinary tables (a full-table scan is a legitimately
// cross-partition read-only operation, the "every-site" query of a
// partitioned engine), the transaction's own copy for replicated tables.
// from/to bound the visited key range inclusively (nil = unbounded; the
// non-negative key domains of the workloads make the zero key the minimum).
// The row passed to fn is only valid for the duration of the call. fn
// returning false stops the scan. The primary index must be ordered.
//
//oltpsim:hotpath
func (tx *Tx) AnalyticScan(t *Table, from, to []catalog.Value, fn func(key []byte, row catalog.Row) bool) error {
	kind := opScanAll
	if from != nil || to != nil {
		kind = opScan
	}
	tx.chargeOp(kind, t)
	st := &tx.ctx.scan
	st.beginQuery(tx, t, to)
	st.aggregating = false
	st.fn = fn
	st.ensureRowBuf(t.Schema)
	return tx.runScan(t, from)
}

// AnalyticAggregate folds specs over the rows of t with key in [from, to]
// (nil = unbounded) and stores one accumulator per spec into out, returning
// the number of rows folded. COUNT accumulates row counts; SUM/MIN/MAX fold
// the spec's Long column (MIN/MAX of zero rows yield math.MaxInt64 /
// math.MinInt64 — callers check the row count). The fold reads only the
// aggregated columns, the projection advantage of an analytical operator.
//
//oltpsim:hotpath
func (tx *Tx) AnalyticAggregate(t *Table, from, to []catalog.Value, specs []AggSpec, out []int64) (int64, error) {
	if len(out) < len(specs) {
		return 0, fmt.Errorf("engine: aggregate output has %d slots, need %d", len(out), len(specs))
	}
	if err := checkAggSpecs(t, specs); err != nil {
		return 0, err
	}
	kind := opAgg
	if from != nil || to != nil {
		kind = opAggRange
	}
	tx.chargeOp(kind, t)
	st := &tx.ctx.scan
	st.beginQuery(tx, t, to)
	st.aggregating = true
	st.specs = specs
	st.out = out[:len(specs)]
	st.groupBy = -1
	initAccs(specs, st.out)
	if err := tx.runScan(t, from); err != nil {
		return 0, err
	}
	return st.rows, nil
}

// AnalyticAggregateGroup folds specs over every row of t, grouped by the
// Long column groupBy, and calls visit once per group in ascending group
// order with that group's accumulators (valid only during the call). It
// returns the number of rows folded.
//
//oltpsim:hotpath
func (tx *Tx) AnalyticAggregateGroup(t *Table, groupBy int, specs []AggSpec, visit func(group int64, accs []int64)) (int64, error) {
	if err := checkAggSpecs(t, specs); err != nil {
		return 0, err
	}
	if t.Schema.Columns[groupBy].Type != catalog.TypeLong {
		return 0, fmt.Errorf("engine: GROUP BY column %q of %q is not Long",
			t.Schema.Columns[groupBy].Name, t.Name)
	}
	tx.chargeOp(opAggGroup, t)
	st := &tx.ctx.scan
	st.beginQuery(tx, t, nil)
	st.aggregating = true
	st.specs = specs
	st.out = nil
	st.groupBy = groupBy
	if st.groups == nil {
		st.groups = make(map[int64]int, 64) //oltpsim:coldpath group table allocated on the first grouped query, then cleared and reused
	} else {
		clear(st.groups)
	}
	st.gaccs = st.gaccs[:0]
	st.gkeys = st.gkeys[:0]
	if err := tx.runScan(t, nil); err != nil {
		return 0, err
	}
	slices.Sort(st.gkeys)
	n := len(specs)
	for _, g := range st.gkeys {
		off := st.groups[g]
		visit(g, st.gaccs[off:off+n])
	}
	return st.rows, nil
}

func checkAggSpecs(t *Table, specs []AggSpec) error {
	for _, sp := range specs {
		if sp.Op == AggCount {
			continue
		}
		if t.Schema.Columns[sp.Col].Type != catalog.TypeLong {
			return fmt.Errorf("engine: aggregate %v over non-Long column %q of %q",
				sp.Op, t.Schema.Columns[sp.Col].Name, t.Name)
		}
	}
	return nil
}

func initAccs(specs []AggSpec, accs []int64) {
	for i, sp := range specs {
		switch sp.Op {
		case AggMin:
			accs[i] = math.MaxInt64
		case AggMax:
			accs[i] = math.MinInt64
		default:
			accs[i] = 0
		}
	}
}

// beginQuery resets the recycled state for a new analytic operator. to is
// encoded into the transaction scratch arena (valid until the tx ends).
func (st *scanState) beginQuery(tx *Tx, t *Table, to []catalog.Value) {
	st.tx = tx
	st.t = t
	st.err = nil
	st.stopped = false
	st.rows = 0
	st.toKey = nil
	if to != nil {
		st.toKey = t.encodeKeyInto(&tx.ctx.scratch, to)
	}
}

// ensureRowBuf sizes the reusable row-decode buffers for schema.
func (st *scanState) ensureRowBuf(s *catalog.Schema) {
	if cap(st.rowBuf) < len(s.Columns) {
		st.rowBuf = make(catalog.Row, len(s.Columns)) //oltpsim:coldpath row buffer grows to the widest schema once
	}
	st.rowBuf = st.rowBuf[:len(s.Columns)]
	if cap(st.strBuf) < s.RowSize() {
		st.strBuf = make([]byte, s.RowSize()) //oltpsim:coldpath string buffer grows to the widest row once
	}
}

// runScan drives the per-shard index scans. The table-level locking mirrors
// Tx.Scan: one IS intent per table, never per-row locks — a long analytical
// reader under 2PL holds a single shared intent, as the modeled disk-based
// systems do for index scans.
func (tx *Tx) runScan(t *Table, from []catalog.Value) error {
	e := tx.e
	// In concurrent mode an every-site scan of a non-replicated table reads
	// shards other cores are executing on; it is only safe stop-the-world,
	// which Sessions arrange for procedures marked cross-partition.
	if e.mt && !t.Replicated && e.cfg.Partitions > 1 && (tx.proc == nil || !tx.proc.crossPartition) {
		return fmt.Errorf("engine: analytic scan of %q in concurrent mode requires a cross-partition procedure (MarkCrossPartition)", t.Name)
	}
	if e.lm != nil && !tx.tableLocks[t.ID] {
		tx.cpu.Exec(e.rLock, e.cfg.Costs.LockAcquire)
		if err := e.lm.Acquire(tx.id, txn.TableLockID(uint32(t.ID)), txn.LockIS); err != nil {
			return err
		}
		tx.tableLocks[t.ID] = true
	}
	var fromKey []byte
	if from != nil {
		fromKey = t.encodeKeyInto(&tx.ctx.scratch, from)
	} else {
		fromKey = tx.ctx.scratch.Bytes(t.KeyWidth) // zeroed: the minimum key
	}
	st := &tx.ctx.scan
	for p := range t.shards {
		if t.Replicated && p != tx.part {
			continue
		}
		sh := &t.shards[p]
		oi, ok := sh.idx.(index.OrderedIndex)
		if !ok {
			return fmt.Errorf("engine: table %q index %s does not support scans", t.Name, sh.idx.Name())
		}
		st.sh = sh
		oi.Scan(fromKey, st.visit)
		tx.release(sh, &st.pin, false) // drop the held heap page before leaving the shard
		if st.err != nil || st.stopped {
			break
		}
	}
	return st.err
}

// scanVisit is the per-entry index callback of every analytic scan; it is
// bound once per execution context so the hot loop creates no closures.
//
//oltpsim:hotpath
func (cx *ExecCtx) scanVisit(key []byte, val uint64) bool {
	st := &cx.scan
	tx := st.tx
	if st.toKey != nil && bytes.Compare(key, st.toKey) > 0 {
		return false // past the upper bound; next shard restarts at fromKey
	}
	addr, err := tx.resolve(st.sh, val, readScan, &st.pin)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return true // version invisible to this snapshot; skip
		}
		st.err = err
		return false
	}
	m := cx.mem
	if st.aggregating {
		st.foldRow(tx, m, addr)
	} else {
		tx.scanRowCharge()
		row := st.t.Schema.ReadRowInto(m, addr, st.rowBuf, st.strBuf)
		st.rows++
		if !st.fn(key, row) {
			st.stopped = true
		}
	}
	return !st.stopped
}

// foldRow accumulates one row into the aggregate state, reading only the
// columns the fold needs.
//
//oltpsim:hotpath
func (st *scanState) foldRow(tx *Tx, m *simmem.Arena, addr simmem.Addr) {
	tx.aggRowCharge(len(st.specs))
	s := st.t.Schema
	accs := st.out
	if st.groupBy >= 0 {
		g := int64(m.ReadU64(addr + simmem.Addr(s.Offset(st.groupBy))))
		off, ok := st.groups[g]
		if !ok {
			off = len(st.gaccs)
			st.groups[g] = off
			st.gkeys = append(st.gkeys, g)
			st.gaccs = append(st.gaccs, make([]int64, len(st.specs))...) //oltpsim:coldpath accumulator growth on first sight of a group
			initAccs(st.specs, st.gaccs[off:off+len(st.specs)])
		}
		accs = st.gaccs[off : off+len(st.specs)]
	}
	st.rows++
	for i, sp := range st.specs {
		if sp.Op == AggCount {
			accs[i]++
			continue
		}
		v := int64(m.ReadU64(addr + simmem.Addr(s.Offset(sp.Col))))
		switch sp.Op {
		case AggSum:
			accs[i] += v
		case AggMin:
			if v < accs[i] {
				accs[i] = v
			}
		case AggMax:
			if v > accs[i] {
				accs[i] = v
			}
		}
	}
}

// aggRowCharge charges the per-row instructions of an aggregate fold: the
// scan-loop body plus the per-aggregate accumulate work. Compiled front ends
// run it from the procedure's tight region, interpreters from the plan
// executor — the same split as scanRowCharge.
func (tx *Tx) aggRowCharge(nSpecs int) {
	c := tx.e.cfg.Costs
	n := c.ScanPerRow + c.AggPerRow*nSpecs
	if tx.e.cfg.FrontEnd == FECompiled {
		tx.cpu.ExecLoop(tx.proc.region, 1, n)
		return
	}
	tx.cpu.Exec(tx.e.rPlanExec, n)
}

// LookupRow returns the currently visible row stored under keyVals,
// bypassing the front-end, concurrency control and instruction charges: the
// inspection hook the differential reference-executor tests compare engine
// state through. For MVCC storage it reads the newest committed version; for
// replicated tables it reads partition 0's copy (all copies are loaded
// identically and replicated tables are read-only by convention). It must
// not be called while a transaction is executing on the engine.
func (t *Table) LookupRow(keyVals []catalog.Value) (catalog.Row, bool) {
	e := t.e
	e.ctx0.scratch.Reset()
	sh := &t.shards[0]
	if !t.Replicated && e.cfg.Partitions > 1 {
		sh = &t.shards[t.PartitionOf(keyVals)]
	} else if t.Replicated && e.owned != nil {
		// Cluster node: shard 0 may not be local; read the first owned copy.
		for p := range t.shards {
			if e.owned[p] {
				sh = &t.shards[p]
				break
			}
		}
	}
	key := t.EncodeKey(keyVals)
	val, ok := sh.idx.Lookup(key)
	if !ok {
		return nil, false
	}
	// An inspection read through the serialized context: it resolves the
	// newest committed version and charges nothing.
	tx := Tx{e: e, ctx: &e.ctx0}
	var pin rowPin
	addr, err := tx.resolve(sh, val, readLatest, &pin)
	if err != nil {
		return nil, false
	}
	row := t.Schema.ReadRow(e.mach.Arena, addr)
	tx.release(sh, &pin, false)
	return row, true
}
