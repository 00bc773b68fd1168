package engine

import (
	"fmt"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/simmem"
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
		default:
			e.decide(e.ctxs[core], part, st, commit)
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

// decide ends partition part's prepared branch as the transaction it
// prepared, on a Tx that carries the branch's ID and stages nothing: commit
// replays the staged writes in staging order (last-wins for rewrites of one
// row) through the write tails the in-place ops run — storage charge, write,
// log record — and then runs the commit tail; abort discards them and runs
// the abort tail. Caller holds coreMu[part].
func (e *Engine) decide(cx *ExecCtx, part int, st *stagedTx, commit bool) {
	cx.scratch.Reset()
	tx := &cx.txv
	*tx = Tx{e: e, ctx: cx, cpu: cx.cpu, part: part, id: st.id}
	if commit {
		for i := range st.writes {
			w := &st.writes[i]
			sh := &w.t.shards[part]
			switch w.kind {
			case swUpdate:
				tx.cpu.Exec(e.rStorage, e.cfg.Costs.StorageAccess)
				tx.writeBack(w.t, sh, 0, w.addr, w.row)
			case swInsert:
				tx.insert(w.t, sh, w.key, w.row) // row-store inserts cannot fail
			case swDelete:
				tx.unlink(w.t, sh, w.key) // ErrNotFound: nothing to unlink, nothing logged
			}
		}
		e.commit(tx) // no MVCC in concurrent mode: the commit cannot fail
	} else {
		e.abort(tx)
	}
	st.active = false
	st.writes = st.writes[:0]
}

// stage buffers one write of a 2PC prepare, copying its key and row out of
// the transaction's scratch arena into heap memory that survives until the
// decision.
//
//oltpsim:coldpath 2PC staging allocates its buffered write set
func (tx *Tx) stage(t *Table, kind int, addr simmem.Addr, key []byte, row catalog.Row) {
	w := stagedWrite{t: t, kind: kind, addr: addr}
	if key != nil {
		w.key = append([]byte(nil), key...)
	}
	if row != nil {
		w.row = make(catalog.Row, len(row))
		for i, v := range row {
			if v.S != nil {
				v.S = append([]byte(nil), v.S...)
			}
			w.row[i] = v
		}
	}
	tx.staged.writes = append(tx.staged.writes, w)
}
