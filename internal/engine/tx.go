package engine

import (
	"errors"
	"fmt"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/index"
	"oltpsim/internal/txn"
)

// ErrNotFound is returned by point operations on absent keys.
var ErrNotFound = errors.New("engine: key not found")

// Tx is one executing transaction: the handle stored procedures use to reach
// the engine. All ops route through the engine's configured component stack.
type Tx struct {
	e    *Engine
	ctx  *ExecCtx // the executing context: scratch, memory handle, scan state
	cpu  *core.CPU
	part int
	id   uint64
	args []catalog.Value
	proc *Procedure

	mtx *txn.MVTx
	// tableLocks marks tables whose intent lock this transaction already
	// holds (indexed by table ID; backed by the engine's reusable slice).
	tableLocks []bool
	// staged, when non-nil, marks a 2PC prepare: writes divert into the
	// partition's staging buffer instead of applying in place, and reads see
	// only the committed pre-transaction state (twopc.go).
	staged *stagedTx
}

// Part returns the transaction's partition.
func (tx *Tx) Part() int { return tx.part }

// Args returns the invocation arguments.
func (tx *Tx) Args() []catalog.Value { return tx.args }

// ArgI returns argument i as a Long.
func (tx *Tx) ArgI(i int) int64 { return tx.args[i].I }

// ArgS returns argument i as a String.
func (tx *Tx) ArgS(i int) []byte { return tx.args[i].S }

type opKind int

const (
	opGet opKind = iota
	opUpdate
	opInsert
	opDelete
	opScan
	// Analytical op kinds (the OLAP path in olap.go).
	opScanAll  // unpredicated full-table scan
	opAgg      // full-table aggregate fold
	opAggRange // key-range-bounded aggregate fold
	opAggGroup // grouped aggregate fold
	numOpKinds
)

// One bit per op kind must fit an ExecCtx.parsed entry.
const _ = uint16(1) << (numOpKinds - 1)

// routingViolation is the panic value for single-site routing violations: a
// contract breach reachable from client input (a mis-routed request), which
// runBody converts to an abort+error instead of letting it kill a serving
// process. It is a distinct type so genuinely unexpected panics still
// propagate fail-stop.
type routingViolation string

func (v routingViolation) Error() string { return string(v) }

// shardFor picks the shard a key lives in; non-partitioned engines always
// use shard 0, replicated tables serve the transaction's own partition.
// Partitioned engines trust single-partition routing and fail loudly if a
// transaction crosses its partition (the paper's VoltDB runs are configured
// to be single-site).
func (tx *Tx) shardFor(t *Table, keyVals []catalog.Value) *shard {
	if tx.e.cfg.Partitions == 1 {
		return &t.shards[0]
	}
	if t.Replicated {
		return &t.shards[tx.part]
	}
	p := t.PartitionOf(keyVals)
	if p != tx.part {
		panic(routingViolation(fmt.Sprintf("engine: transaction on partition %d touched key of partition %d (table %q)",
			tx.part, p, t.Name)))
	}
	return &t.shards[p]
}

// lockRow acquires the hierarchical locks for a row access when the engine
// uses locking, charging lock-manager instructions per acquire.
func (tx *Tx) lockRow(t *Table, key []byte, exclusive bool) error {
	if tx.e.lm == nil {
		return nil
	}
	c := tx.e.cfg.Costs
	if !tx.tableLocks[t.ID] {
		mode := txn.LockIS
		if exclusive {
			mode = txn.LockIX
		}
		tx.cpu.Exec(tx.e.rLock, c.LockAcquire)
		if err := tx.e.lm.Acquire(tx.id, txn.TableLockID(uint32(t.ID)), mode); err != nil {
			return err
		}
		tx.tableLocks[t.ID] = true
	}
	mode := txn.LockS
	if exclusive {
		mode = txn.LockX
	}
	tx.cpu.Exec(tx.e.rLock, c.LockAcquire)
	return tx.e.lm.Acquire(tx.id, txn.RowLockID(uint32(t.ID), hashKey(key)), mode)
}

// point is the front of every keyed op: the statement's front-end charge,
// the shard that holds the key, the encoded key and the row lock.
func (tx *Tx) point(kind opKind, t *Table, keyVals []catalog.Value, exclusive bool) (*shard, []byte, error) {
	tx.chargeOp(kind, t)
	sh := tx.shardFor(t, keyVals)
	key := t.encodeKeyInto(&tx.ctx.scratch, keyVals)
	return sh, key, tx.lockRow(t, key, exclusive)
}

// Get reads column col of the row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) Get(t *Table, keyVals []catalog.Value, col int) (catalog.Value, error) {
	row, err := tx.getCols(t, keyVals, []int{col})
	if err != nil {
		return catalog.Value{}, err
	}
	return row[0], nil
}

// GetRow reads the full row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) GetRow(t *Table, keyVals []catalog.Value) (catalog.Row, error) {
	return tx.getCols(t, keyVals, nil)
}

func (tx *Tx) getCols(t *Table, keyVals []catalog.Value, cols []int) (catalog.Row, error) {
	sh, key, err := tx.point(opGet, t, keyVals, false)
	if err != nil {
		return nil, err
	}
	val, ok := sh.idx.Lookup(key)
	if !ok {
		return nil, ErrNotFound
	}
	var pin rowPin
	addr, err := tx.resolve(sh, val, readTx, &pin)
	if err != nil {
		return nil, err
	}
	tx.cpu.Exec(tx.e.rStorage, tx.e.cfg.Costs.StorageAccess)
	m, sc := tx.ctx.mem, &tx.ctx.scratch
	var row catalog.Row
	if cols == nil {
		row = t.Schema.ReadRowS(m, addr, sc)
	} else {
		row = sc.Row(len(cols))
		for i, ci := range cols {
			row[i] = t.Schema.ReadFieldS(m, addr, ci, sc)
		}
	}
	tx.release(sh, &pin, false)
	return row, nil
}

// Update sets column col of the row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) Update(t *Table, keyVals []catalog.Value, col int, v catalog.Value) error {
	return tx.rmw(t, keyVals, col, func(catalog.Value) catalog.Value { return v }, nil)
}

// UpdateAdd adds delta to the Long column col of the row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) UpdateAdd(t *Table, keyVals []catalog.Value, col int, delta int64) error {
	return tx.rmw(t, keyVals, col, func(old catalog.Value) catalog.Value {
		return catalog.LongVal(old.I + delta)
	}, nil)
}

// Modify applies a read-modify-write to the full row with the given key: f
// receives the current row and returns the new one (it may mutate and return
// its argument). One probe, one lock, one log record — the multi-column
// update shape of the TPC transactions.
//
//oltpsim:hotpath
func (tx *Tx) Modify(t *Table, keyVals []catalog.Value, f func(catalog.Row) catalog.Row) error {
	return tx.rmw(t, keyVals, -1, nil, f)
}

// Insert adds a new row.
//
//oltpsim:hotpath
func (tx *Tx) Insert(t *Table, row catalog.Row) error {
	keyVals := tx.ctx.scratch.Row(len(t.KeyCols))
	for i, ci := range t.KeyCols {
		keyVals[i] = row[ci]
	}
	sh, key, err := tx.point(opInsert, t, keyVals, true)
	if err != nil {
		return err
	}
	return tx.insert(t, sh, key, row)
}

// Delete removes the row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) Delete(t *Table, keyVals []catalog.Value) error {
	sh, key, err := tx.point(opDelete, t, keyVals, true)
	if err != nil {
		return err
	}
	return tx.unlink(t, sh, key)
}

// Scan visits rows with key >= fromKey in key order, decoding each row, until
// fn returns false or limit rows have been visited (limit 0 = unbounded).
// The primary index must be ordered (every index here except hash). Each row
// is resolved and released on its own; a version invisible to the
// transaction is skipped, and a page that cannot be fixed ends the scan.
func (tx *Tx) Scan(t *Table, fromKey []catalog.Value, limit int, fn func(key []byte, row catalog.Row) bool) error {
	tx.chargeOp(opScan, t)
	sh := tx.shardFor(t, fromKey)
	oi, ok := sh.idx.(index.OrderedIndex)
	if !ok {
		return fmt.Errorf("engine: table %q index %s does not support scans", t.Name, sh.idx.Name())
	}
	from := t.encodeKeyInto(&tx.ctx.scratch, fromKey)
	if tx.e.lm != nil {
		// Scans take a table-level S intent; per-row locks would be the
		// dominant cost for long scans, which matches the coarse-grained
		// behavior of the modeled systems under index scans.
		tx.cpu.Exec(tx.e.rLock, tx.e.cfg.Costs.LockAcquire)
		if err := tx.e.lm.Acquire(tx.id, txn.TableLockID(uint32(t.ID)), txn.LockIS); err != nil {
			return err
		}
		tx.tableLocks[t.ID] = true
	}
	visited := 0
	oi.Scan(from, func(key []byte, val uint64) bool {
		var pin rowPin
		addr, err := tx.resolve(sh, val, readTx, &pin)
		if err != nil {
			return errors.Is(err, ErrNotFound)
		}
		tx.scanRowCharge()
		row := t.Schema.ReadRowS(tx.ctx.mem, addr, &tx.ctx.scratch)
		visited++
		more := fn(key, row) && (limit == 0 || visited < limit)
		tx.release(sh, &pin, false)
		return more
	})
	return nil
}

// scanRowCharge charges the per-row work of a scan. Compiled procedures run
// a tight loop (the body stays hot); interpreting executors walk the
// operator tree for every row, paying its cold-path instruction fetches.
func (tx *Tx) scanRowCharge() {
	c := tx.e.cfg.Costs
	if tx.e.cfg.FrontEnd == FECompiled {
		tx.cpu.ExecLoop(tx.proc.region, 1, c.ScanPerRow)
		return
	}
	tx.cpu.Exec(tx.e.rPlanExec, c.ScanPerRow)
}

func hashKey(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
