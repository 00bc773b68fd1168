package engine

import (
	"fmt"
	"sync/atomic"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
)

// Session is a thread-safe invocation handle for an Engine. Every invocation
// runs through InvokeBatch; the engine's two modes differ only in the size of
// the execution lock set it runs under.
//
// Serialized (the default): the Engine and everything under it (machine,
// arena, caches) are single-goroutine confined — the simulated hardware has
// one timeline — so the set has one lock and Sessions share the engine by
// serializing every core's work on it, the way concurrent clients multiplex
// onto a real server's cores.
//
// Concurrent (Engine.EnterConcurrent): one lock per core == partition, each
// with its own recycled ExecCtx, so invocations on different cores genuinely
// interleave on the simulated machine and cross-core coherence traffic comes
// from real concurrent access. Cross-partition procedures
// (MarkCrossPartition) run stop-the-world under the whole set, with every
// partition bound to the calling core's context, so they charge that one
// core as they do while serialized.
//
// Scrape contract (both modes): session counters are incremented while the
// execution lock that ran the transaction is still held. An observer inside
// Engine.Observe therefore never sees an engine-side counter advance
// (TxCount, Aborts) without the matching session op already counted: at any
// Observe point, sum(TxCount) + Aborts <= sum of session Ops, with equality
// when every invocation flows through Sessions and reaches the engine (an
// unknown procedure name or a mis-keyed core fails before the engine counts
// anything, but still counts as a session op and err).
//
// Sessions are cheap: oltpd creates one per client connection (for per-
// session accounting) and one per shard worker (for batch execution). Code
// that uses Sessions must not call Engine.Invoke/SetCore directly while
// sessions are live; the single-goroutine harness paths keep doing so
// without ever touching any lock, which is why the simulator hot path pays
// nothing for this API.
type Session struct {
	e *Engine

	// Ops and Errs count invocations through this session (atomic; readable
	// while the session is in use, e.g. by a /metrics scrape).
	Ops  atomic.Uint64
	Errs atomic.Uint64
}

// Request is one queued invocation for Session.InvokeBatch: the group-
// execute unit of the serving path.
type Request struct {
	Part int
	Proc string
	Args []catalog.Value
}

// NewSession returns a new thread-safe handle onto e.
func (e *Engine) NewSession() *Session { return &Session{e: e} }

// Invoke runs one stored procedure on the given partition, on the given
// simulated core: a one-request InvokeBatch. It is safe to call from any
// goroutine.
//
//oltpsim:hotpath
func (s *Session) Invoke(core, part int, proc string, args ...catalog.Value) error {
	reqs := [1]Request{{Part: part, Proc: proc, Args: args}}
	var errs [1]error
	s.InvokeBatch(core, reqs[:], errs[:])
	return errs[0]
}

// count records one invocation outcome. Callers invoke it while still
// holding the execution lock the transaction ran under (see the scrape
// contract above).
//
//oltpsim:hotpath
func (s *Session) count(err error) {
	s.Ops.Add(1)
	if err != nil {
		s.Errs.Add(1)
	}
}

// InvokeBatch is the group-execute loop: it acquires core's execution lock
// once and runs every request back to back on that core, writing per-request
// errors into errs (which must be at least len(reqs) long). Batching is what
// lets a shard worker amortize the engine handoff across every request queued
// on its shard — the server-side analogue of the driver's pipelining.
//
// Serialized, the one lock covers every core and SetCore re-pins the
// serialized context to core. Concurrent, lock and context are core's own and
// shard execution is core-keyed: every request must be for partition == core,
// except a cross-partition one, which momentarily trades the core lock for
// the stop-the-world set.
//
//oltpsim:hotpath
func (s *Session) InvokeBatch(core int, reqs []Request, errs []error) {
	e := s.e
	slot := e.slot(core)
	if slot < 0 || slot >= len(e.coreMu) {
		err := fmt.Errorf("engine: core %d out of concurrent range [0,%d)", core, len(e.coreMu)) //oltpsim:coldpath routing error
		for i := range reqs {
			errs[i] = err
			s.count(err)
		}
		return
	}
	mu := &e.coreMu[slot]
	mu.Lock()
	if !e.mt {
		e.SetCore(core)
	}
	cx := e.ctxs[slot]
	for i := range reqs {
		r := &reqs[i]
		p := e.procs[r.Proc]
		var err error
		switch {
		case p == nil:
			err = fmt.Errorf("engine: no procedure %q", r.Proc) //oltpsim:coldpath unknown-procedure error
		case r.Part < 0 || r.Part >= e.cfg.Partitions:
			err = fmt.Errorf("engine: partition %d out of range", r.Part) //oltpsim:coldpath routing error
		case p.crossPartition && len(e.coreMu) > 1:
			// Trade the core lock for the whole set, run, trade back: requests
			// behind this one wait, as do other cores — an every-site
			// transaction on a partitioned engine. Every partition is bound
			// to cx meanwhile, so the whole procedure charges this core, as
			// it does while serialized.
			mu.Unlock()
			e.lockAll()
			e.bindShards(cx)
			err = e.invoke(cx, r.Part, p, r.Args)
			e.bindShards(nil)
			s.count(err)
			e.unlockAll()
			mu.Lock()
			errs[i] = err
			continue
		case e.mt && r.Part != core:
			err = fmt.Errorf("engine: concurrent invoke of partition %d on core %d (must match)", r.Part, core) //oltpsim:coldpath routing error
		default:
			err = e.invoke(cx, r.Part, p, r.Args)
		}
		errs[i] = err
		// Count before releasing: a scrape under Observe must never see the
		// engine's counters advance without the matching session op.
		s.count(err)
	}
	mu.Unlock()
}

// Observe runs f with every execution lock held, giving it a consistent,
// quiescent view of the machine and its PMU counters while sessions are
// active (the /metrics scrape path). It drains the hierarchy's pending
// invalidations first (there are none while serialized), so the coherence
// directory and caches agree exactly when f looks. f must not invoke
// transactions.
func (e *Engine) Observe(f func(m *core.Machine)) {
	e.lockAll()
	e.mach.Hier.Quiesce()
	f(e.mach)
	e.unlockAll()
}
