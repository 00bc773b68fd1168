package engine

import (
	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
	"oltpsim/internal/wal"
)

// This file is the row seam: the one place that knows how each storage kind
// keeps a row. An index entry's value names a row — a heap RID
// (StorageHeap), a row-store address (StorageRows) or an MVCC record anchor
// (StorageMVCC). Every op reaches the row image through resolve, ends its
// access with release, stores a new row with place and writes a changed one
// with writeBack; the op bodies in tx.go, olap.go and twopc.go are written
// once over these, and a 2PC prepare diverts the writes into its staging
// buffer at the same seam.

// rowRead says which version of a row resolve returns and whether it is
// charged. Only MVCC keeps more than one version; the other kinds differ by
// the charge alone.
type rowRead uint8

const (
	// readTx is a point op's read: the transaction's snapshot, added to its
	// read set (validated at commit).
	readTx rowRead = iota
	// readScan is an analytic scan's read: the transaction's snapshot, not
	// validated — a snapshot reader over millions of rows neither grows a
	// read set nor aborts writers.
	readScan
	// readLatest is the inspection read: the newest committed version, with
	// no instruction charge.
	readLatest
)

// rowPin is what a resolved row holds until release: under StorageHeap, the
// fixed page its record sits in. A streaming scan keeps one pin across the
// records of a page (one fix per page, like a real executor's scan latch);
// point ops pin per row.
type rowPin struct {
	page uint64
	base simmem.Addr
	held bool
}

// resolve returns the address of the row image that index value val names
// in shard sh, as read sees it, paying the storage kind's access charge: a
// buffer-pool fix for a heap page the pin does not already hold, a version
// chain walk for MVCC. ErrNotFound means no version is visible to read.
//
//oltpsim:hotpath
func (tx *Tx) resolve(sh *shard, val uint64, read rowRead, pin *rowPin) (simmem.Addr, error) {
	e := tx.e
	switch e.cfg.Storage {
	case StorageHeap:
		rid := storage.RID(val)
		if !pin.held || pin.page != rid.Page() {
			tx.release(sh, pin, false)
			if read != readLatest {
				tx.cpu.Exec(e.rBP, e.cfg.Costs.BPFix)
			}
			base, err := sh.heap.FixPage(rid.Page())
			if err != nil {
				return 0, err
			}
			*pin = rowPin{page: rid.Page(), base: base, held: true}
		}
		addr, _ := storage.PageRecord(tx.ctx.mem, pin.base, rid.Slot())
		return addr, nil
	case StorageRows:
		return simmem.Addr(val), nil
	default: // StorageMVCC
		anchor := simmem.Addr(val)
		var addr simmem.Addr
		var ok bool
		switch read {
		case readTx:
			tx.cpu.Exec(e.rMVCC, e.cfg.Costs.MVCCRead)
			addr, ok = tx.mtx.Read(anchor)
		case readScan:
			tx.cpu.Exec(e.rMVCC, e.cfg.Costs.MVCCRead)
			addr, ok = tx.mtx.ReadSnapshot(anchor)
		default:
			addr, ok = e.mv.ReadLatest(anchor)
		}
		if !ok {
			return 0, ErrNotFound
		}
		return addr, nil
	}
}

// release ends the access resolve began: a held heap page is unfixed (marked
// dirty when the op wrote the record); the in-memory kinds hold nothing.
//
//oltpsim:hotpath
func (tx *Tx) release(sh *shard, pin *rowPin, dirty bool) {
	if pin.held {
		sh.heap.UnfixPage(pin.page, dirty)
		pin.held = false
	}
}

// place stores a new row in shard sh and returns the value its index entry
// carries: the heap RID, the row-store address, or the anchor of a fresh
// one-version MVCC chain. cpu, when non-nil, pays the anchor's
// version-manager charge; bulk loads pass nil, as population charges nothing.
func (e *Engine) place(sh *shard, row catalog.Row, cpu *core.CPU) (uint64, error) {
	switch e.cfg.Storage {
	case StorageHeap:
		rid, err := sh.heap.Insert(row)
		return uint64(rid), err
	case StorageRows:
		return uint64(sh.rows.Insert(row)), nil
	default: // StorageMVCC
		addr := sh.rows.Insert(row)
		if cpu != nil {
			cpu.Exec(e.rMVCC, e.cfg.Costs.MVCCRead)
		}
		return uint64(e.mv.NewAnchor(addr)), nil
	}
}

// rmw is the one read-modify-write behind Update, UpdateAdd and Modify. A
// single-column edit (col >= 0, through setCol) of a row written in place
// reads and writes that column alone; every other edit — a full-row one
// (setRow), or any edit of an MVCC row or a staged one — reads the whole
// row, edits it and hands the new image to writeBack.
//
//oltpsim:hotpath
func (tx *Tx) rmw(t *Table, keyVals []catalog.Value, col int,
	setCol func(catalog.Value) catalog.Value, setRow func(catalog.Row) catalog.Row) error {
	sh, key, err := tx.point(opUpdate, t, keyVals, true)
	if err != nil {
		return err
	}
	val, ok := sh.idx.Lookup(key)
	if !ok {
		return ErrNotFound
	}
	var pin rowPin
	addr, err := tx.resolve(sh, val, readTx, &pin)
	if err != nil {
		return err
	}
	tx.cpu.Exec(tx.e.rStorage, tx.e.cfg.Costs.StorageAccess)
	m, sc := tx.ctx.mem, &tx.ctx.scratch
	if col >= 0 && tx.staged == nil && tx.e.cfg.Storage != StorageMVCC {
		old := t.Schema.ReadFieldS(m, addr, col, sc)
		tx.logUpdate(t, addr) // physiological logging: the row's before-image
		t.Schema.WriteField(m, addr, col, setCol(old))
	} else {
		row := t.Schema.ReadRowS(m, addr, sc)
		if col >= 0 {
			row[col] = setCol(row[col])
		} else {
			row = setRow(row)
		}
		tx.writeBack(t, sh, val, addr, row)
	}
	tx.release(sh, &pin, true)
	return nil
}

// writeBack writes the new image of the row at addr (index value val): in
// place, as a new MVCC version installed at commit, or into the 2PC staging
// buffer, to be written in place when the branch commits.
func (tx *Tx) writeBack(t *Table, sh *shard, val uint64, addr simmem.Addr, row catalog.Row) {
	switch {
	case tx.staged != nil:
		tx.stage(t, swUpdate, addr, nil, row)
	case tx.e.cfg.Storage == StorageMVCC:
		newAddr := sh.rows.Insert(row)
		tx.logUpdate(t, newAddr)
		tx.mtx.StageWrite(simmem.Addr(val), newAddr)
	default:
		tx.logUpdate(t, addr)
		t.Schema.WriteRow(tx.ctx.mem, addr, row)
	}
}

// insert stores row under key (the storage charge, then the row, its index
// entry and its log record), or stages it.
func (tx *Tx) insert(t *Table, sh *shard, key []byte, row catalog.Row) error {
	e := tx.e
	tx.cpu.Exec(e.rStorage, e.cfg.Costs.StorageAccess)
	if tx.staged != nil {
		tx.stage(t, swInsert, 0, key, row)
		return nil
	}
	val, err := e.place(sh, row, tx.cpu)
	if err != nil {
		return err
	}
	sh.idx.Insert(key, val)
	rowSize := t.Schema.RowSize()
	tx.cpu.Exec(e.rLog, e.cfg.Costs.LogBase+e.cfg.Costs.LogPerByte*rowSize)
	img := tx.ctx.scratch.Bytes(rowSize) // zeroed logical insert image
	e.logs[tx.part].AppendBytes(tx.id, wal.RecInsert, img)
	return nil
}

// unlink removes key's index entry and logs it, or — staged — checks that
// key exists in the committed state and stages the unlink.
func (tx *Tx) unlink(t *Table, sh *shard, key []byte) error {
	if tx.staged != nil {
		if _, ok := sh.idx.Lookup(key); !ok {
			return ErrNotFound
		}
		tx.stage(t, swDelete, 0, key, nil)
		return nil
	}
	if !sh.idx.Delete(key) {
		return ErrNotFound
	}
	e := tx.e
	tx.cpu.Exec(e.rLog, e.cfg.Costs.LogBase+e.cfg.Costs.LogPerByte*len(key))
	e.logs[tx.part].AppendBytes(tx.id, wal.RecDelete, key)
	return nil
}

// logUpdate charges and appends the update record of t's row at addr.
func (tx *Tx) logUpdate(t *Table, addr simmem.Addr) {
	e := tx.e
	rowSize := t.Schema.RowSize()
	tx.cpu.Exec(e.rLog, e.cfg.Costs.LogBase+e.cfg.Costs.LogPerByte*rowSize)
	e.logs[tx.part].Append(tx.id, wal.RecUpdate, addr, rowSize)
}
