package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/index"
	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
	"oltpsim/internal/txn"
	"oltpsim/internal/wal"
)

// Engine is one configured OLTP system running on a simulated machine.
//
// By default an Engine (with its Machine, arena, and every substrate built
// on them) is confined to a single goroutine, and nothing is shared between
// Engine instances — the experiment harness runs cells concurrently by
// giving each its own Engine. Share-nothing partitioned archetypes can
// additionally enter concurrent mode (EnterConcurrent, execctx.go), where
// each partition's transactions execute on their own core from their own
// goroutine under per-core locks. Keep any new state instance-scoped (no
// package-level mutable variables) to preserve all of this.
type Engine struct {
	cfg  Config
	mach *core.Machine
	cs   *core.CodeSpace

	// Component code regions.
	rNet, rParser, rOptimizer, rDispatch, rPlanExec *core.Region
	rTxn, rLock, rBP, rIdx, rStorage, rLog, rMVCC   *core.Region

	lm   *txn.LockManager
	mv   *txn.MVCC
	bp   *storage.BufferPool
	logs []*wal.Log // one per partition (partitioned engines log per site)

	tables []*Table
	byName map[string]*Table
	procs  map[string]*Procedure

	txnSeq  atomic.Uint64
	Aborts  atomic.Uint64
	curCPU  *core.CPU
	baseCPI float64

	// ctx0 is the serialized-mode execution context: the transaction-scoped
	// reusable state (Tx value, MVCC context, statement bitmap, scratch
	// arena, scan executor). One transaction is active at a time in that
	// mode, so Invoke recycles ctx0 across transactions — the steady state
	// of the hot path allocates nothing. Concurrent mode (EnterConcurrent,
	// execctx.go) builds one context per partition instead.
	ctx0 ExecCtx

	// The execution lock set and the contexts it guards, indexed by lock
	// slot. Serialized: one lock and ctx0, shared by every core (Sessions
	// serialize on it; single-goroutine users — the harness, examples, tests
	// — never touch it). Concurrent (mt): one lock and one pinned context per
	// core == partition.
	ctxs   []*ExecCtx
	coreMu []sync.Mutex
	mt     bool

	// owned, when non-nil, marks the partitions this engine actually stores:
	// a cluster node's engine keeps the GLOBAL partition count (so key
	// routing is identical on every node) but populates only its own shards.
	// nil means all partitions are local (the single-process default).
	owned []bool

	// staged holds at most one prepared-but-undecided 2PC branch per
	// partition (see twopc.go); staged[p] is guarded by coreMu[p].
	staged []stagedTx
}

// Table is one logical table, possibly sharded across partitions.
type Table struct {
	ID       int
	Name     string
	Schema   *catalog.Schema
	KeyCols  []int
	KeyWidth int
	// Replicated tables keep a full copy per partition (read-mostly tables
	// such as TPC-C's item table, which VoltDB-style systems replicate to
	// keep transactions single-sited). Load inserts into every shard;
	// transactions read their own partition's copy.
	Replicated bool
	shards     []shard
	e          *Engine
}

// SetReplicated marks the table as replicated across partitions. It must be
// called before any rows are loaded.
func (t *Table) SetReplicated() *Table {
	if t.Count() != 0 {
		panic(fmt.Sprintf("engine: SetReplicated on non-empty table %q", t.Name))
	}
	t.Replicated = true
	return t
}

type shard struct {
	idx  index.Index
	rows *storage.RowStore
	heap *storage.HeapFile
	// home is the socket loadShard claims the shard's data for, -1 for none
	// (fixed when the table is created: it depends only on the machine).
	home int
}

const (
	// bufferPoolFrames is the number of 8KB frames in StorageHeap's buffer
	// pool, which the heap file and an IndexBTree8K share. 1 GiB: no
	// experiment evicts, as in the paper's memory-resident setups.
	bufferPoolFrames = 1 << 17
	// logBufBytes sizes each partition's asynchronous log buffer.
	logBufBytes = 1 << 20
)

// New builds an engine from cfg on a fresh simulated machine.
func New(cfg Config) *Engine {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	mach := core.NewMachine(cfg.Machine)
	e := &Engine{
		cfg:     cfg,
		mach:    mach,
		cs:      core.NewCodeSpace(mach.Arena),
		byName:  make(map[string]*Table),
		procs:   make(map[string]*Procedure),
		curCPU:  mach.Current(),
		baseCPI: 1.0/core.BaseIPC + cfg.OtherCPI,
	}
	r := cfg.Regions
	mk := func(name string, mod core.Module, spec RegionSpec) *core.Region {
		if spec.Size <= 0 {
			spec.Size = 4096
		}
		if spec.BPI <= 0 {
			spec.BPI = 4
		}
		if spec.Hot <= 0 || spec.Hot > 1 {
			spec.Hot = 1
		}
		return e.cs.NewRegionHot(name, mod, spec.Size, spec.BPI, spec.Hot)
	}
	e.rNet = mk("net", core.ModNetwork, r.Net)
	e.rParser = mk("parser", core.ModParser, r.Parser)
	e.rOptimizer = mk("optimizer", core.ModOptimizer, r.Optimizer)
	e.rDispatch = mk("dispatch", core.ModDispatch, r.Dispatch)
	e.rPlanExec = mk("planexec", core.ModPlanExec, r.PlanExec)
	e.rTxn = mk("txnmgr", core.ModTxnMgr, r.Txn)
	e.rLock = mk("lockmgr", core.ModLockMgr, r.Lock)
	e.rBP = mk("bufferpool", core.ModBufferPool, r.BufferPool)
	e.rIdx = mk("index", core.ModIndex, r.Index)
	e.rStorage = mk("storage", core.ModStorage, r.Storage)
	e.rLog = mk("logging", core.ModLogging, r.Log)
	e.rMVCC = mk("mvcc", core.ModMVCC, r.MVCC)

	if cfg.UseLocks {
		e.lm = txn.NewLockManager(mach.Arena, 1<<14)
	}
	if cfg.Storage == StorageMVCC {
		e.mv = txn.NewMVCC(mach.Arena)
	}
	if cfg.Storage == StorageHeap {
		e.bp = storage.NewBufferPool(mach.Arena, bufferPoolFrames)
	}
	e.logs = make([]*wal.Log, cfg.Partitions)
	for i := range e.logs {
		e.logs[i] = wal.NewLog(mach.Arena, logBufBytes)
	}
	e.initCtx(&e.ctx0, nil, mach.Arena)
	e.serialize()
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetOwnedPartitions restricts which partitions this engine stores rows for:
// a cluster node keeps the global partition count for routing but loads only
// its own shards (replicated tables load a copy into every OWNED shard).
// Must be called before population; len(owned) must equal the partition
// count and at least one partition must be owned. nil resets to all-local.
func (e *Engine) SetOwnedPartitions(owned []bool) {
	if owned == nil {
		e.owned = nil
		return
	}
	if len(owned) != e.cfg.Partitions {
		panic(fmt.Sprintf("engine: owned mask has %d entries for %d partitions", len(owned), e.cfg.Partitions))
	}
	any := false
	for _, o := range owned {
		any = any || o
	}
	if !any {
		panic("engine: owned mask owns no partitions")
	}
	e.owned = append([]bool(nil), owned...)
}

// OwnsPartition reports whether partition p is stored locally (always true
// without an owned mask).
func (e *Engine) OwnsPartition(p int) bool { return e.owned == nil || e.owned[p] }

// Machine returns the underlying simulated machine.
func (e *Engine) Machine() *core.Machine { return e.mach }

// BaseCPI returns the engine's no-miss cycles per instruction.
func (e *Engine) BaseCPI() float64 { return e.baseCPI }

// Partitions returns the number of data partitions.
func (e *Engine) Partitions() int { return e.cfg.Partitions }

// LockManager exposes the lock manager (nil unless UseLocks).
func (e *Engine) LockManager() *txn.LockManager { return e.lm }

// MVCC exposes the version manager (nil unless StorageMVCC).
func (e *Engine) MVCC() *txn.MVCC { return e.mv }

// BufferPool exposes the buffer pool (nil unless StorageHeap).
func (e *Engine) BufferPool() *storage.BufferPool { return e.bp }

// Log exposes the partition-local WAL.
func (e *Engine) Log(part int) *wal.Log { return e.logs[part] }

// SetCore selects the simulated core that subsequent invocations run on.
func (e *Engine) SetCore(cpu int) {
	e.mach.SetCurrent(cpu)
	e.curCPU = e.mach.Current()
}

// CreateOrderedTable is CreateTable for tables whose access paths include
// range scans. If the engine's configured index kind is unordered (hash),
// the table falls back to the archetype's ordered index: the cache-conscious
// B-tree for in-memory engines, the 8KB-page B-tree for disk engines. This
// mirrors DBMS M, which implements both a hash index and a B-tree variant
// and indexes scannable tables with the latter.
func (e *Engine) CreateOrderedTable(schema *catalog.Schema, keyCols ...string) *Table {
	if e.cfg.Index != IndexHash {
		return e.CreateTable(schema, keyCols...)
	}
	fallback := IndexCCTree512
	if e.cfg.Storage == StorageHeap {
		fallback = IndexBTree8K
	}
	return e.createTable(schema, fallback, keyCols...)
}

// CreateTable registers a table whose primary index covers keyCols in order.
func (e *Engine) CreateTable(schema *catalog.Schema, keyCols ...string) *Table {
	return e.createTable(schema, e.cfg.Index, keyCols...)
}

func (e *Engine) createTable(schema *catalog.Schema, idxKind IndexKind, keyCols ...string) *Table {
	if _, dup := e.byName[schema.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate table %q", schema.Name))
	}
	t := &Table{
		ID:     len(e.tables) + 1,
		Name:   schema.Name,
		Schema: schema,
		e:      e,
	}
	for _, kc := range keyCols {
		ci := schema.ColumnIndex(kc)
		if ci < 0 {
			panic(fmt.Sprintf("engine: key column %q not in table %q", kc, schema.Name))
		}
		t.KeyCols = append(t.KeyCols, ci)
		t.KeyWidth += schema.Columns[ci].Size()
	}
	if t.KeyWidth == 0 {
		panic(fmt.Sprintf("engine: table %q needs at least one key column", schema.Name))
	}
	t.shards = make([]shard, e.cfg.Partitions)
	for i := range t.shards {
		t.shards[i] = e.newShard(t, i, idxKind)
	}
	e.tables = append(e.tables, t)
	e.byName[schema.Name] = t
	return t
}

func (e *Engine) newShard(t *Table, p int, idxKind IndexKind) shard {
	s := shard{home: -1}
	if hcfg := e.mach.Hier.Config(); hcfg.Placement == core.PlacePartitioned && hcfg.Sockets > 1 {
		s.home = e.mach.SocketOf(p % hcfg.Cores)
	}
	switch e.cfg.Storage {
	case StorageHeap:
		s.heap = storage.NewHeapFile(e.mach.Arena, e.bp, t.Schema)
	default:
		s.rows = storage.NewRowStore(e.mach.Arena, t.Schema)
	}
	switch idxKind {
	case IndexBTree8K:
		s.idx = index.NewBTree(e.mach.Arena, e.bp, t.KeyWidth)
	case IndexCCTree64:
		// At least four entries per node so fanout stays reasonable: two lines
		// (128 bytes) at 8-byte keys, more for wide (string) keys.
		s.idx = index.NewCCTree(e.mach.Arena, t.KeyWidth, max(64, 16+4*(t.KeyWidth+8)))
	case IndexCCTree512:
		s.idx = index.NewCCTree(e.mach.Arena, t.KeyWidth, max(512, 16+4*(t.KeyWidth+8)))
	case IndexHash:
		s.idx = index.NewHashIndex(e.mach.Arena, t.KeyWidth, 1<<20)
	case IndexART:
		s.idx = index.NewART(e.mach.Arena, t.KeyWidth)
	default:
		panic("engine: unknown index kind")
	}
	s.idx.SetMeter(&e.ctx0.meter)
	return s
}

// Table returns the named table.
func (e *Engine) Table(name string) *Table {
	t := e.byName[name]
	if t == nil {
		panic(fmt.Sprintf("engine: no table %q", name))
	}
	return t
}

// Tables lists all tables.
func (e *Engine) Tables() []*Table { return e.tables }

// EncodeKey builds the index key bytes for the key column values (in key
// order). Long values use the order-preserving big-endian encoding. The key
// is built in the engine's serialized-mode transaction scratch arena: it
// stays valid until the end of the current transaction (or bulk-load row),
// and nothing downstream retains it (indexes and the log copy key bytes into
// the arena). Transaction code paths use encodeKeyInto with their own
// context's scratch instead.
func (t *Table) EncodeKey(keyVals []catalog.Value) []byte {
	return t.encodeKeyInto(&t.e.ctx0.scratch, keyVals)
}

// encodeKeyInto is EncodeKey building into the given scratch arena (the
// executing context's, so concurrent transactions never share key buffers).
//
//oltpsim:hotpath
func (t *Table) encodeKeyInto(sc *catalog.Scratch, keyVals []catalog.Value) []byte {
	if len(keyVals) != len(t.KeyCols) {
		panic(fmt.Sprintf("engine: table %q key arity %d, want %d", //oltpsim:coldpath arity violation fails loudly
			t.Name, len(keyVals), len(t.KeyCols)))
	}
	key := sc.Bytes(t.KeyWidth) // zeroed: string columns pad with 0
	off := 0
	for i, ci := range t.KeyCols {
		col := t.Schema.Columns[ci]
		switch col.Type {
		case catalog.TypeLong:
			catalog.PutKeyLong(key[off:off+8], keyVals[i].I)
			off += 8
		case catalog.TypeString:
			copy(key[off:off+col.Width], keyVals[i].S)
			off += col.Width
		}
	}
	return key
}

// PartitionOf routes a key to a partition: Long keys partition by value
// modulo the partition count; other keys by a hash of the first key column.
func (t *Table) PartitionOf(keyVals []catalog.Value) int {
	n := len(t.shards)
	if n == 1 {
		return 0
	}
	c := t.Schema.Columns[t.KeyCols[0]]
	if c.Type == catalog.TypeLong {
		v := keyVals[0].I
		if v < 0 {
			v = -v
		}
		return int(v % int64(n))
	}
	var h uint64 = 1469598103934665603
	for _, b := range keyVals[0].S {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// Count returns the total row count across shards.
func (t *Table) Count() uint64 {
	var n uint64
	for i := range t.shards {
		n += t.shards[i].idx.Count()
	}
	return n
}

// IndexShape reports the entry count of shard p's primary index and, when
// the index is a tree, its height (0 otherwise); used by the populated-image
// fence.
func (t *Table) IndexShape(p int) (count uint64, height int) {
	idx := t.shards[p].idx
	if tr, ok := idx.(*index.Tree); ok {
		height = tr.Height()
	}
	return idx.Count(), height
}

// Load bulk-inserts a row during population: no concurrency control, no
// logging, no front-end, and (by convention) tracing disabled by the caller.
// The row's partition is derived from its key; replicated tables load a copy
// into every partition.
func (t *Table) Load(row catalog.Row) {
	t.e.ctx0.scratch.Reset() // no transaction active during bulk load
	keyVals := t.e.ctx0.scratch.Row(len(t.KeyCols))
	for i, ci := range t.KeyCols {
		keyVals[i] = row[ci]
	}
	if t.Replicated {
		for p := range t.shards {
			if t.e.OwnsPartition(p) {
				t.loadShard(p, keyVals, row)
			}
		}
		return
	}
	if p := t.PartitionOf(keyVals); t.e.OwnsPartition(p) {
		t.loadShard(p, keyVals, row)
	}
}

// loadShard inserts row into shard p. Under PlacePartitioned on a
// multi-socket machine, every arena byte the insert allocates — row storage
// segments, index nodes, version anchors, heap pages — is homed on the socket
// of the core that drives partition p (the harness pins worker p to core p),
// which is the NUMA-aware first-touch placement a partitioned engine gets for
// free on real hardware. Shard substrates allocate only shard-private
// structures, so bracketing the insert with Arena.DataTop captures exactly
// partition p's data.
func (t *Table) loadShard(p int, keyVals []catalog.Value, row catalog.Row) {
	sh := &t.shards[p]
	if sh.home < 0 {
		t.loadShardInto(sh, keyVals, row)
		return
	}
	mach := t.e.mach
	before := mach.Arena.DataTop()
	t.loadShardInto(sh, keyVals, row)
	if top := mach.Arena.DataTop(); top > before {
		mach.ClaimHome(before, int(top-before), sh.home)
	}
}

func (t *Table) loadShardInto(sh *shard, keyVals []catalog.Value, row catalog.Row) {
	key := t.EncodeKey(keyVals)
	val, err := t.e.place(sh, row, nil)
	if err != nil {
		panic(err)
	}
	sh.idx.Insert(key, val)
}

// idxMeter translates index node visits into instruction execution on the
// index code region of its context's core (the engine's current core for the
// serialized context, whose cpu is nil). It is quiet while tracing is off
// (bulk population), mirroring how data accesses are untraced then.
type idxMeter struct {
	e   *Engine
	cpu *core.CPU     // fixed core in concurrent mode; nil = follow e.curCPU
	mem *simmem.Arena // the arena handle whose tracing state gates metering
}

//oltpsim:hotpath
func (m *idxMeter) NodeVisit(cmpBytes int) {
	if !m.mem.Tracing() {
		return
	}
	c := m.e.cfg.Costs
	cpu := m.cpu
	if cpu == nil {
		cpu = m.e.curCPU
	}
	cpu.Exec(m.e.rIdx, c.IdxNodeBase+c.IdxPerCmpByte*cmpBytes)
}
