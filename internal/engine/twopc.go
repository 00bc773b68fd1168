package engine

import (
	"fmt"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/simmem"
	"oltpsim/internal/wal"
)

// Two-phase commit participant path.
//
// A cluster coordinator (internal/cluster) decomposes a multi-partition
// transaction into single-partition branches and drives each branch through
// prepare/decide on the owning node. The participant side lives here:
// Session.Prepare runs a branch body with its writes STAGED — reads see the
// committed pre-transaction state, writes buffer into a per-partition staging
// slot — and Session.Resolve later installs (commit) or discards (abort) the
// staged set. Between the two calls the partition's shard worker blocks, so
// per-partition serializability is preserved without holding any engine lock
// across the network round trip: the worker is the partition's only executor.
//
// Staged semantics (snapshot-within-branch): a branch's reads never observe
// its own staged writes. This exactly matches the reference executor's
// staged (OCC) apply mode, which is what lets the cluster differential test
// replay a committed 2PC as one staged reference transaction.
//
// Only concurrent-mode engines qualify (EnterConcurrent: share-nothing
// StorageRows archetypes — VoltDB/HyPer style), which is also the only class
// the cluster tier shards across nodes.

// Staged write kinds.
const (
	swUpdate = iota // full-row write-back at a committed row address
	swInsert        // new row under key
	swDelete        // unlink key
)

// stagedWrite is one buffered write of a prepared 2PC branch. Updates carry
// the committed row address captured at stage time (valid until the decision
// because the partition's worker is blocked in between) and the full new row
// image; inserts carry key + row; deletes carry the key.
type stagedWrite struct {
	t    *Table
	kind int
	addr simmem.Addr
	key  []byte
	row  catalog.Row
}

// stagedTx is a partition's single prepared-but-undecided 2PC branch.
// staged[p] is guarded by coreMu[p]; at most one branch per partition can be
// in the prepared state (the shard worker blocks until its decision).
type stagedTx struct {
	active bool
	gtid   uint64
	id     uint64 // engine transaction ID, for WAL records at install
	writes []stagedWrite
}

// Prepare executes one 2PC branch on the given core/partition with staged
// writes and votes: a nil return is a YES vote (the staged writes are
// retained, awaiting Resolve), an error is a NO vote (the branch aborted and
// nothing is retained). Concurrent mode only; core must equal part. The
// caller must guarantee no other transaction runs on this partition between
// a YES vote and the matching Resolve — in the serving tier the partition's
// shard worker blocks, being the partition's only executor.
func (s *Session) Prepare(core, part int, gtid uint64, proc string, args []catalog.Value) error {
	e := s.e
	var err error
	p := e.procs[proc]
	switch {
	case !e.mt:
		err = fmt.Errorf("engine: 2PC prepare requires concurrent mode")
	case p == nil:
		err = fmt.Errorf("engine: no procedure %q", proc)
	case core < 0 || core >= len(e.ctxs):
		err = fmt.Errorf("engine: core %d out of concurrent range [0,%d)", core, len(e.ctxs))
	case p.crossPartition:
		err = fmt.Errorf("engine: procedure %q is cross-partition and cannot be a 2PC branch", proc)
	case part != core:
		err = fmt.Errorf("engine: concurrent prepare of partition %d on core %d (must match)", part, core)
	default:
		mu := &e.coreMu[core]
		mu.Lock()
		st := &e.staged[part]
		if st.active {
			err = fmt.Errorf("engine: partition %d already holds prepared transaction %d", part, st.gtid)
		} else {
			st.active, st.gtid = true, gtid
			st.writes = st.writes[:0]
			err = e.invokeStaged(e.ctxs[core], e.ctxs[core].cpu, part, p, args, st)
			if err != nil {
				st.active = false
			}
		}
		s.count(err)
		mu.Unlock()
		return err
	}
	s.count(err)
	return err
}

// Resolve decides a prepared branch: commit installs the staged writes (in
// staging order, with the storage/log/commit charges the in-place path would
// have paid), abort discards them. Per presumed abort, aborting a gtid this
// partition does not hold prepared is a successful no-op; committing one is
// an error (the coordinator only issues commit after unanimous YES votes, so
// an unknown gtid on commit means a protocol violation or a participant that
// already timed out — either way the caller must hear about it).
func (s *Session) Resolve(core, part int, gtid uint64, commit bool) error {
	e := s.e
	var err error
	switch {
	case !e.mt:
		err = fmt.Errorf("engine: 2PC resolve requires concurrent mode")
	case core < 0 || core >= len(e.ctxs):
		err = fmt.Errorf("engine: core %d out of concurrent range [0,%d)", core, len(e.ctxs))
	case part != core:
		err = fmt.Errorf("engine: concurrent resolve of partition %d on core %d (must match)", part, core)
	default:
		mu := &e.coreMu[core]
		mu.Lock()
		st := &e.staged[part]
		switch {
		case !st.active || st.gtid != gtid:
			if commit {
				err = fmt.Errorf("engine: commit for unknown prepared transaction %d on partition %d", gtid, part)
			}
		case commit:
			e.installStaged(e.ctxs[core], part, st)
			st.active = false
		default:
			st.active = false
			st.writes = st.writes[:0]
			e.ctxs[core].cpu.Exec(e.rTxn, e.cfg.Costs.TxnCommit)
			e.Aborts.Add(1)
		}
		s.count(err)
		mu.Unlock()
		return err
	}
	s.count(err)
	return err
}

// PreparedGTID reports the gtid of the branch partition p holds prepared, if
// any (test/inspection hook; takes the partition's execution lock).
func (e *Engine) PreparedGTID(p int) (uint64, bool) {
	if !e.mt || p < 0 || p >= len(e.staged) {
		return 0, false
	}
	e.coreMu[p].Lock()
	defer e.coreMu[p].Unlock()
	st := &e.staged[p]
	return st.gtid, st.active
}

// invokeStaged is the prepare-phase request path: invoke's front half
// (begin) with the transaction's writes diverted into st, and no commit tail
// — a YES vote forces the prepare log record and leaves the staged set for
// Resolve. Qualification is implied by concurrent mode:
// no lock manager, no MVCC, no buffer pool, StorageRows.
func (e *Engine) invokeStaged(cx *ExecCtx, cpu *core.CPU, part int, p *Procedure, args []catalog.Value, st *stagedTx) error {
	tx := e.begin(cx, cpu, part, p, args, st)
	st.id = tx.id

	if err := e.runBody(tx, p); err != nil {
		e.abort(tx)
		return err
	}
	// YES vote: force the prepare record. The commit record, the installed
	// writes and their charges come with Resolve(commit).
	cpu.Exec(e.rLog, e.cfg.Costs.LogBase)
	return nil
}

// installStaged applies a committed branch's staged writes in staging order
// (last-wins for rewrites of one row), paying the storage, logging and
// commit charges the in-place path pays, then forces the commit record.
// Caller holds coreMu[part].
func (e *Engine) installStaged(cx *ExecCtx, part int, st *stagedTx) {
	c := e.cfg.Costs
	cpu := cx.cpu
	cx.scratch.Reset()
	for i := range st.writes {
		w := &st.writes[i]
		rowSize := w.t.Schema.RowSize()
		sh := &w.t.shards[part]
		switch w.kind {
		case swUpdate:
			cpu.Exec(e.rStorage, c.StorageAccess)
			cpu.Exec(e.rLog, c.LogBase+c.LogPerByte*rowSize)
			e.logs[part].Append(st.id, wal.RecUpdate, w.addr, rowSize)
			w.t.Schema.WriteRow(cx.mem, w.addr, w.row)
		case swInsert:
			cpu.Exec(e.rStorage, c.StorageAccess)
			addr := sh.rows.Insert(w.row)
			sh.idx.Insert(w.key, uint64(addr))
			cpu.Exec(e.rLog, c.LogBase+c.LogPerByte*rowSize)
			img := cx.scratch.Bytes(rowSize) // zeroed logical insert image
			e.logs[part].AppendBytes(st.id, wal.RecInsert, img)
		case swDelete:
			if sh.idx.Delete(w.key) {
				cpu.Exec(e.rLog, c.LogBase+c.LogPerByte*len(w.key))
				e.logs[part].AppendBytes(st.id, wal.RecDelete, w.key)
			}
		}
	}
	cpu.Exec(e.rLog, c.LogBase)
	e.logs[part].Commit(st.id)
	cpu.Exec(e.rTxn, c.TxnCommit)
	cpu.TxCount++
	st.writes = st.writes[:0]
}

// stagedCopyRow deep-copies a scratch-backed row into heap memory that
// survives until the decision.
//
//oltpsim:coldpath 2PC staging buffers outlive the transaction's scratch arena
func stagedCopyRow(row catalog.Row) catalog.Row {
	out := make(catalog.Row, len(row))
	for i, v := range row {
		if v.S != nil {
			v.S = append([]byte(nil), v.S...)
		}
		out[i] = v
	}
	return out
}

// stageFieldUpdate stages a single-column update: read the committed row,
// apply f to the column, buffer the full new image.
//
//oltpsim:coldpath 2PC staging allocates its buffered write set
func (tx *Tx) stageFieldUpdate(t *Table, addr simmem.Addr, col int, f func(catalog.Value) catalog.Value) error {
	c := tx.e.cfg.Costs
	tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
	row := t.Schema.ReadRowS(tx.ctx.mem, addr, &tx.ctx.scratch)
	row[col] = f(row[col])
	tx.staged.writes = append(tx.staged.writes, stagedWrite{
		t: t, kind: swUpdate, addr: addr, row: stagedCopyRow(row),
	})
	return nil
}

// stageModify stages a read-modify-write of the full committed row.
//
//oltpsim:coldpath 2PC staging allocates its buffered write set
func (tx *Tx) stageModify(t *Table, addr simmem.Addr, f func(catalog.Row) catalog.Row) error {
	c := tx.e.cfg.Costs
	tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
	row := f(t.Schema.ReadRowS(tx.ctx.mem, addr, &tx.ctx.scratch))
	tx.staged.writes = append(tx.staged.writes, stagedWrite{
		t: t, kind: swUpdate, addr: addr, row: stagedCopyRow(row),
	})
	return nil
}

// stageInsert stages a new row under key.
//
//oltpsim:coldpath 2PC staging allocates its buffered write set
func (tx *Tx) stageInsert(t *Table, key []byte, row catalog.Row) error {
	c := tx.e.cfg.Costs
	tx.cpu.Exec(tx.e.rStorage, c.StorageAccess)
	tx.staged.writes = append(tx.staged.writes, stagedWrite{
		t: t, kind: swInsert, key: append([]byte(nil), key...), row: stagedCopyRow(row),
	})
	return nil
}

// stageDelete stages unlinking key, verifying it exists in the committed
// state first (the in-place path's ErrNotFound contract).
//
//oltpsim:coldpath 2PC staging allocates its buffered write set
func (tx *Tx) stageDelete(t *Table, sh *shard, key []byte) error {
	if _, ok := sh.idx.Lookup(key); !ok {
		return ErrNotFound
	}
	tx.staged.writes = append(tx.staged.writes, stagedWrite{
		t: t, kind: swDelete, key: append([]byte(nil), key...),
	})
	return nil
}
