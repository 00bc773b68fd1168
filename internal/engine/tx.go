package engine

import (
	"errors"
	"fmt"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/index"
	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
	"oltpsim/internal/txn"
	"oltpsim/internal/wal"
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
	tx.chargeOp(opGet, t)
	sh := tx.shardFor(t, keyVals)
	key := t.encodeKeyInto(&tx.ctx.scratch, keyVals)
	if err := tx.lockRow(t, key, false); err != nil {
		return nil, err
	}
	val, ok := sh.idx.Lookup(key)
	if !ok {
		return nil, ErrNotFound
	}
	c := tx.e.cfg.Costs
	m := tx.ctx.mem
	readFields := func(addr simmem.Addr) catalog.Row {
		tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
		if cols == nil {
			return t.Schema.ReadRowS(m, addr, &tx.ctx.scratch)
		}
		row := tx.ctx.scratch.Row(len(cols))
		for i, ci := range cols {
			row[i] = t.Schema.ReadFieldS(m, addr, ci, &tx.ctx.scratch)
		}
		return row
	}
	switch tx.e.cfg.Storage {
	case StorageHeap:
		rid := storage.RID(val)
		tx.cpu.Exec(tx.e.rBP, c.BPFix)
		addr, err := sh.heap.Fix(rid)
		if err != nil {
			return nil, err
		}
		row := readFields(addr)
		sh.heap.Unfix(rid, false)
		return row, nil
	case StorageRows:
		return readFields(simmem.Addr(val)), nil
	default: // StorageMVCC
		tx.cpu.Exec(tx.e.rMVCC, c.MVCCRead)
		addr, ok := tx.mtx.Read(simmem.Addr(val))
		if !ok {
			return nil, ErrNotFound
		}
		return readFields(addr), nil
	}
}

// Update sets column col of the row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) Update(t *Table, keyVals []catalog.Value, col int, v catalog.Value) error {
	return tx.update(t, keyVals, col, func(catalog.Value) catalog.Value { return v })
}

// UpdateAdd adds delta to the Long column col of the row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) UpdateAdd(t *Table, keyVals []catalog.Value, col int, delta int64) error {
	return tx.update(t, keyVals, col, func(old catalog.Value) catalog.Value {
		return catalog.LongVal(old.I + delta)
	})
}

func (tx *Tx) update(t *Table, keyVals []catalog.Value, col int, f func(catalog.Value) catalog.Value) error {
	tx.chargeOp(opUpdate, t)
	sh := tx.shardFor(t, keyVals)
	key := t.encodeKeyInto(&tx.ctx.scratch, keyVals)
	if err := tx.lockRow(t, key, true); err != nil {
		return err
	}
	val, ok := sh.idx.Lookup(key)
	if !ok {
		return ErrNotFound
	}
	if tx.staged != nil { // 2PC prepare: concurrent mode implies StorageRows
		return tx.stageFieldUpdate(t, simmem.Addr(val), col, f)
	}
	c := tx.e.cfg.Costs
	m := tx.ctx.mem
	rowSize := t.Schema.RowSize()
	switch tx.e.cfg.Storage {
	case StorageHeap:
		rid := storage.RID(val)
		tx.cpu.Exec(tx.e.rBP, c.BPFix)
		addr, err := sh.heap.Fix(rid)
		if err != nil {
			return err
		}
		tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
		old := t.Schema.ReadFieldS(m, addr, col, &tx.ctx.scratch)
		// Physiological logging: before-image of the row.
		tx.cpu.Exec(tx.e.rLog, c.LogBase+c.LogPerByte*rowSize)
		tx.e.logs[tx.part].Append(tx.id, wal.RecUpdate, addr, rowSize)
		t.Schema.WriteField(m, addr, col, f(old))
		sh.heap.Unfix(rid, true)
		return nil
	case StorageRows:
		addr := simmem.Addr(val)
		tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
		old := t.Schema.ReadFieldS(m, addr, col, &tx.ctx.scratch)
		tx.cpu.Exec(tx.e.rLog, c.LogBase+c.LogPerByte*rowSize)
		tx.e.logs[tx.part].Append(tx.id, wal.RecUpdate, addr, rowSize)
		t.Schema.WriteField(m, addr, col, f(old))
		return nil
	default: // StorageMVCC: copy-on-write version
		anchor := simmem.Addr(val)
		tx.cpu.Exec(tx.e.rMVCC, c.MVCCRead)
		cur, ok := tx.mtx.Read(anchor)
		if !ok {
			return ErrNotFound
		}
		tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
		row := t.Schema.ReadRowS(m, cur, &tx.ctx.scratch)
		row[col] = f(row[col])
		newAddr := sh.rows.Insert(row)
		tx.cpu.Exec(tx.e.rLog, c.LogBase+c.LogPerByte*rowSize)
		tx.e.logs[tx.part].Append(tx.id, wal.RecUpdate, newAddr, rowSize)
		tx.mtx.StageWrite(anchor, newAddr)
		return nil
	}
}

// Modify applies a read-modify-write to the full row with the given key: f
// receives the current row and returns the new one (it may mutate and return
// its argument). One probe, one lock, one log record — the multi-column
// update shape of the TPC transactions.
//
//oltpsim:hotpath
func (tx *Tx) Modify(t *Table, keyVals []catalog.Value, f func(catalog.Row) catalog.Row) error {
	tx.chargeOp(opUpdate, t)
	sh := tx.shardFor(t, keyVals)
	key := t.encodeKeyInto(&tx.ctx.scratch, keyVals)
	if err := tx.lockRow(t, key, true); err != nil {
		return err
	}
	val, ok := sh.idx.Lookup(key)
	if !ok {
		return ErrNotFound
	}
	if tx.staged != nil { // 2PC prepare: concurrent mode implies StorageRows
		return tx.stageModify(t, simmem.Addr(val), f)
	}
	c := tx.e.cfg.Costs
	m := tx.ctx.mem
	rowSize := t.Schema.RowSize()
	writeBack := func(addr simmem.Addr, row catalog.Row) {
		tx.cpu.Exec(tx.e.rLog, c.LogBase+c.LogPerByte*rowSize)
		tx.e.logs[tx.part].Append(tx.id, wal.RecUpdate, addr, rowSize)
		t.Schema.WriteRow(m, addr, row)
	}
	switch tx.e.cfg.Storage {
	case StorageHeap:
		rid := storage.RID(val)
		tx.cpu.Exec(tx.e.rBP, c.BPFix)
		addr, err := sh.heap.Fix(rid)
		if err != nil {
			return err
		}
		tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
		writeBack(addr, f(t.Schema.ReadRowS(m, addr, &tx.ctx.scratch)))
		sh.heap.Unfix(rid, true)
		return nil
	case StorageRows:
		addr := simmem.Addr(val)
		tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
		writeBack(addr, f(t.Schema.ReadRowS(m, addr, &tx.ctx.scratch)))
		return nil
	default: // StorageMVCC
		anchor := simmem.Addr(val)
		tx.cpu.Exec(tx.e.rMVCC, c.MVCCRead)
		cur, ok := tx.mtx.Read(anchor)
		if !ok {
			return ErrNotFound
		}
		tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
		row := f(t.Schema.ReadRowS(m, cur, &tx.ctx.scratch))
		newAddr := sh.rows.Insert(row)
		tx.cpu.Exec(tx.e.rLog, c.LogBase+c.LogPerByte*rowSize)
		tx.e.logs[tx.part].Append(tx.id, wal.RecUpdate, newAddr, rowSize)
		tx.mtx.StageWrite(anchor, newAddr)
		return nil
	}
}

// Insert adds a new row.
//
//oltpsim:hotpath
func (tx *Tx) Insert(t *Table, row catalog.Row) error {
	tx.chargeOp(opInsert, t)
	keyVals := tx.ctx.scratch.Row(len(t.KeyCols))
	for i, ci := range t.KeyCols {
		keyVals[i] = row[ci]
	}
	sh := tx.shardFor(t, keyVals)
	key := t.encodeKeyInto(&tx.ctx.scratch, keyVals)
	if err := tx.lockRow(t, key, true); err != nil {
		return err
	}
	if tx.staged != nil { // 2PC prepare: buffer the insert
		return tx.stageInsert(t, key, row)
	}
	c := tx.e.cfg.Costs
	rowSize := t.Schema.RowSize()
	tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
	switch tx.e.cfg.Storage {
	case StorageHeap:
		rid, err := sh.heap.Insert(row)
		if err != nil {
			return err
		}
		sh.idx.Insert(key, uint64(rid))
	case StorageRows:
		addr := sh.rows.Insert(row)
		sh.idx.Insert(key, uint64(addr))
	default: // StorageMVCC
		addr := sh.rows.Insert(row)
		tx.cpu.Exec(tx.e.rMVCC, c.MVCCRead)
		anchor := tx.e.mv.NewAnchor(addr)
		sh.idx.Insert(key, uint64(anchor))
	}
	tx.cpu.Exec(tx.e.rLog, c.LogBase+c.LogPerByte*rowSize)
	img := tx.ctx.scratch.Bytes(rowSize) // zeroed logical insert image
	tx.e.logs[tx.part].AppendBytes(tx.id, wal.RecInsert, img)
	return nil
}

// Delete removes the row with the given key.
//
//oltpsim:hotpath
func (tx *Tx) Delete(t *Table, keyVals []catalog.Value) error {
	tx.chargeOp(opDelete, t)
	sh := tx.shardFor(t, keyVals)
	key := t.encodeKeyInto(&tx.ctx.scratch, keyVals)
	if err := tx.lockRow(t, key, true); err != nil {
		return err
	}
	if tx.staged != nil { // 2PC prepare: buffer the unlink
		return tx.stageDelete(t, sh, key)
	}
	if !sh.idx.Delete(key) {
		return ErrNotFound
	}
	c := tx.e.cfg.Costs
	tx.cpu.Exec(tx.e.rLog, c.LogBase+c.LogPerByte*len(key))
	tx.e.logs[tx.part].AppendBytes(tx.id, wal.RecDelete, key)
	return nil
}

// Scan visits rows with key >= fromKey in key order, decoding each row, until
// fn returns false or limit rows have been visited (limit 0 = unbounded).
// The primary index must be ordered (every index here except hash).
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
	c := tx.e.cfg.Costs
	m := tx.ctx.mem
	visited := 0
	oi.Scan(from, func(key []byte, val uint64) bool {
		var addr simmem.Addr
		switch tx.e.cfg.Storage {
		case StorageHeap:
			rid := storage.RID(val)
			tx.cpu.Exec(tx.e.rBP, c.BPFix)
			a, err := sh.heap.Fix(rid)
			if err != nil {
				return false
			}
			addr = a
			defer sh.heap.Unfix(rid, false)
		case StorageRows:
			addr = simmem.Addr(val)
		default:
			tx.cpu.Exec(tx.e.rMVCC, c.MVCCRead)
			a, ok := tx.mtx.Read(simmem.Addr(val))
			if !ok {
				return true // version invisible to this snapshot; skip
			}
			addr = a
		}
		tx.scanRowCharge()
		row := t.Schema.ReadRowS(m, addr, &tx.ctx.scratch)
		visited++
		if !fn(key, row) {
			return false
		}
		return limit == 0 || visited < limit
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
