package engine

import (
	"fmt"
	"runtime"
	"sort"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
)

// Procedure is a registered stored procedure: a Go closure over the
// transaction op API. Engines with FECompiled get a dedicated compiled code
// region per procedure (the paper's transaction-compilation optimization:
// the whole dispatch stack collapses into one small, hot code region).
type Procedure struct {
	Name string
	Body func(*Tx) error

	region *core.Region
	// crossPartition marks procedures whose body may read shards other than
	// the transaction's own partition (the analytic every-site scans). In
	// concurrent mode such procedures run stop-the-world: the session takes
	// every per-core lock instead of just its own (see session.go).
	crossPartition bool
}

// MarkCrossPartition declares that the procedure's body may read across
// partitions (analytic scans of non-replicated tables). Serialized-mode
// behavior is unchanged; concurrent mode runs the procedure while holding
// every per-core execution lock.
func (p *Procedure) MarkCrossPartition() *Procedure {
	p.crossPartition = true
	return p
}

// Register installs a stored procedure. For FECompiled engines this is where
// "compilation" happens: the procedure receives its own compact code region.
func (e *Engine) Register(name string, body func(*Tx) error) *Procedure {
	if _, dup := e.procs[name]; dup {
		panic(fmt.Sprintf("engine: duplicate procedure %q", name))
	}
	p := &Procedure{Name: name, Body: body}
	if e.cfg.FrontEnd == FECompiled {
		spec := e.cfg.Regions.CompiledProc
		if spec.Size <= 0 {
			spec.Size = 8 << 10
		}
		if spec.BPI <= 0 {
			spec.BPI = 4
		}
		p.region = e.cs.NewRegion("proc:"+name, core.ModCompiledProc, spec.Size, spec.BPI)
	}
	e.procs[name] = p
	return p
}

// Procedures lists registered procedure names, sorted. (Callers render this
// list — the server MOTD, error messages — so the map's iteration order must
// not leak out.)
func (e *Engine) Procedures() []string {
	names := make([]string, 0, len(e.procs))
	for n := range e.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Invoke runs a stored procedure on the given partition with args, through
// the engine's full request path: network, front-end, transaction begin,
// body, commit (or abort on error). It returns the body's error, if any.
// Serialized mode: runs with the serialized execution context, on the core
// SetCore last selected.
//
//oltpsim:hotpath
func (e *Engine) Invoke(part int, procName string, args ...catalog.Value) error {
	p := e.procs[procName]
	if p == nil {
		return fmt.Errorf("engine: no procedure %q", procName) //oltpsim:coldpath unknown-procedure error
	}
	if part < 0 || part >= e.cfg.Partitions {
		return fmt.Errorf("engine: partition %d out of range", part) //oltpsim:coldpath routing error
	}
	return e.invoke(&e.ctx0, part, p, args)
}

// begin is the front half of every request, written once for the commit path
// (invoke) and the 2PC prepare path (invokeStaged): the network and dispatch
// charges, the compiled procedure's entry, the transaction-id draw, and the
// recycling of cx's per-transaction state. st is the partition's staging slot
// for a 2PC prepare, nil otherwise.
//
//oltpsim:hotpath
func (e *Engine) begin(cx *ExecCtx, part int, p *Procedure, args []catalog.Value, st *stagedTx) *Tx {
	c := e.cfg.Costs
	cpu := cx.cpu

	cpu.Exec(e.rNet, c.NetRecv)
	// FEDispatch: parameter deserialization + plan-cache lookup (or the
	// hard-coded driver); FESQLPerRequest: the session layer, with parsing and
	// optimization charged per statement; FECompiled: the runtime entry.
	cpu.Exec(e.rDispatch, c.DispatchBase)
	if e.cfg.FrontEnd == FECompiled {
		cpu.Exec(p.region, c.CompiledEntry)
	}

	// One transaction runs at a time per context, so the Tx value, lock
	// bitmap, statement bitmap, MVCC context and scratch arena are context
	// fields recycled across invocations (zero steady-state allocations).
	cx.scratch.Reset()
	tx := &cx.txv
	*tx = Tx{
		e:      e,
		ctx:    cx,
		cpu:    cpu,
		part:   part,
		id:     e.txnSeq.Add(1),
		args:   args,
		proc:   p,
		staged: st,
	}
	cpu.Exec(e.rTxn, c.TxnBegin)
	if e.lm != nil {
		cx.locked = resetPerTable(cx.locked, len(e.tables))
		tx.tableLocks = cx.locked
	}
	if e.cfg.FrontEnd == FESQLPerRequest {
		cx.parsed = resetPerTable(cx.parsed, len(e.tables))
	}
	if e.mv != nil {
		e.mv.BeginInto(&cx.mvtx)
		tx.mtx = &cx.mvtx
	}
	return tx
}

// resetPerTable returns s zeroed and long enough to index by table ID (IDs
// start at 1), reallocating only when tables were created since the last
// transaction.
//
//oltpsim:hotpath
func resetPerTable[T bool | uint16](s []T, tables int) []T {
	if len(s) < tables+1 {
		return make([]T, tables+1) //oltpsim:coldpath per-table bitmaps grow to the table count once
	}
	clear(s)
	return s
}

// invoke is the context-explicit request path shared by the serialized and
// concurrent modes: cx supplies the recycled per-transaction state, the
// memory handle and the core every instruction charge lands on.
//
//oltpsim:hotpath
func (e *Engine) invoke(cx *ExecCtx, part int, p *Procedure, args []catalog.Value) error {
	tx := e.begin(cx, part, p, args, nil)
	err := e.runBody(tx, p)
	if err == nil {
		err = e.commit(tx)
	}
	if err != nil {
		e.abort(tx)
	}
	return err
}

// commit is the back half of every committing transaction, written once for
// invoke and for installing a committed 2PC branch: MVCC validation and
// version install, lock release, the commit log record. A failed validation
// returns its error with nothing installed; the caller aborts.
//
//oltpsim:hotpath
func (e *Engine) commit(tx *Tx) error {
	c := e.cfg.Costs
	cpu := tx.cpu
	if e.mv != nil {
		cpu.Exec(e.rMVCC, c.MVCCCommit)
		if err := tx.mtx.Commit(); err != nil {
			return err
		}
	}
	if e.lm != nil {
		n := e.lm.HeldCount(tx.id)
		if n > 0 {
			cpu.Exec(e.rLock, c.LockRelease*n)
		}
		e.lm.ReleaseAll(tx.id)
	}
	cpu.Exec(e.rLog, c.LogBase)
	e.logs[tx.part].Commit(tx.id)
	cpu.Exec(e.rTxn, c.TxnCommit)
	cpu.TxCount++
	return nil
}

// runBody executes the procedure body, converting *client-reachable* panics
// into errors: routing violations (a request tagged with the wrong
// partition trips shardFor) and runtime errors (a request with the wrong
// argument count indexes past tx.Args). Inside a serving path those must
// abort the one offending transaction — and produce an error response —
// rather than take down the process with every other connection on it. Any
// other panic value is an engine invariant violation and re-panics
// fail-stop: masking it as an Err frame would keep serving on state whose
// integrity is unknown.
//
// The recovered abort has the engine's existing abort semantics: locks are
// released and MVCC staged writes are discarded, but in-place writes the
// body already performed on non-MVCC archetypes are NOT undone (the
// simulator carries no undo machinery — every error-return abort path, e.g.
// a mid-procedure lock conflict after an earlier update, has always behaved
// this way). A recovered panic mid-procedure can therefore leave a
// partially applied transaction on 2PL archetypes, exactly like a
// mid-procedure error could before; procedures that need atomicity under
// errors validate before writing, as the built-in workloads do.
func (e *Engine) runBody(tx *Tx, p *Procedure) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case routingViolation:
			//oltpsim:coldpath panic recovery: the abort path may allocate
			err = fmt.Errorf("engine: procedure %q panicked: %v", p.Name, r)
		case runtime.Error:
			//oltpsim:coldpath panic recovery: the abort path may allocate
			err = fmt.Errorf("engine: procedure %q panicked: %v", p.Name, r)
		default:
			panic(r)
		}
	}()
	return p.Body(tx)
}

func (e *Engine) abort(tx *Tx) {
	c := e.cfg.Costs
	if e.lm != nil {
		e.lm.ReleaseAll(tx.id)
	}
	if tx.mtx != nil {
		tx.mtx.Abort()
	}
	tx.cpu.Exec(e.rTxn, c.TxnCommit)
	e.Aborts.Add(1)
}

// stmtShape is the shape of the SQL statement DBMS D's ad-hoc front end
// receives for one op of the given kind against t: the length of its token
// stream (the end-of-input token included), which drives the parser charge,
// and its predicate count (WHERE conjuncts plus SET assignments), which
// drives the optimizer charge. With k key columns k1…kk, n columns, c the
// last column and g the first non-key column:
//
//	kind        statement                                                        tokens  preds
//	opGet       SELECT * FROM t WHERE k1 = ? AND … AND kk = ?                    4k+5    k
//	opUpdate    UPDATE t SET c = ? WHERE k1 = ? AND … AND kk = ?                 4k+7    k+1
//	opInsert    INSERT INTO t VALUES (?, …, ?)                                   2n+6    0
//	opDelete    DELETE FROM t WHERE k1 = ? AND … AND kk = ?                      4k+4    k
//	opScan      SELECT * FROM t WHERE k1 = ? AND … AND kk >= ? LIMIT 100         4k+7    k
//	opScanAll   SELECT * FROM t                                                  5       0
//	opAgg       SELECT COUNT(*), SUM(c), MIN(c), MAX(c) FROM t                   23      0
//	opAggRange  SELECT SUM(c) FROM t WHERE k1 = ? AND … AND kk >= ? AND kk <= ?  4k+12   k+1
//	opAggGroup  SELECT g, SUM(c) FROM t GROUP BY g                               13      0
//
// A token is a word, a number, a ?, or one of = >= <= , ( ) *.
//
//oltpsim:hotpath
func (t *Table) stmtShape(kind opKind) (tokens, preds int) {
	k, n := len(t.KeyCols), len(t.Schema.Columns)
	switch kind {
	case opGet:
		return 4*k + 5, k
	case opUpdate:
		return 4*k + 7, k + 1
	case opInsert:
		return 2*n + 6, 0
	case opDelete:
		return 4*k + 4, k
	case opScan:
		return 4*k + 7, k
	case opScanAll:
		return 5, 0
	case opAgg:
		return 23, 0
	case opAggRange:
		return 4*k + 12, k + 1
	case opAggGroup:
		return 13, 0
	}
	panic("engine: unknown op kind") //oltpsim:coldpath unreachable: every opKind has an arm
}

// chargeOp charges the per-statement front-end work for one database op.
// For FESQLPerRequest every execution is charged the full parse+optimize
// instruction stream of the statement (first execution per transaction) or
// the re-bind path (repeats) — DBMS D's ad-hoc path. Each (table, op kind)
// is one distinct statement, so the transaction's parsed set is one bit per
// op kind per table (ExecCtx.parsed).
//
//oltpsim:hotpath
func (tx *Tx) chargeOp(kind opKind, t *Table) {
	e := tx.e
	c := e.cfg.Costs
	switch e.cfg.FrontEnd {
	case FESQLPerRequest:
		// Ad-hoc SQL: every statement is a client round trip through the
		// network and session layers — the reason the paper finds DBMS D's
		// outside-engine overhead high even for 100-row transactions.
		tx.cpu.Exec(e.rNet, c.NetRecv/2)
		tx.cpu.Exec(e.rDispatch, c.DispatchBase/2)
		parsed, bit := &tx.ctx.parsed[t.ID], uint16(1)<<kind
		if *parsed&bit != 0 {
			// Repeated statement within the transaction: parameters re-bind,
			// the cached plan re-executes. This is what makes longer
			// transactions amortize the SQL stack, the effect the paper
			// measures in Figure 7.
			tx.cpu.Exec(e.rParser, c.ParsePerToken)
			tx.cpu.Exec(e.rPlanExec, c.PlanExecPerOp)
			return
		}
		*parsed |= bit
		tokens, preds := t.stmtShape(kind)
		tx.cpu.Exec(e.rParser, c.ParsePerToken*tokens)
		tx.cpu.Exec(e.rOptimizer, c.OptimizeBase+c.OptimizePerPred*preds)
		tx.cpu.Exec(e.rPlanExec, c.PlanExecPerOp)
	case FEDispatch:
		tx.cpu.Exec(e.rPlanExec, c.PlanExecPerOp)
	case FECompiled:
		tx.cpu.Exec(tx.proc.region, c.CompiledPerOp)
	}
}
