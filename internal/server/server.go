// Package server implements oltpd: a TCP service that puts the simulated
// OLTP engine behind a real network serving path. Clients speak the
// internal/wire protocol (prepare/exec/result); requests are routed to
// per-shard queues and executed in batches by one worker per engine shard,
// each pinned to the shard's simulated core — so under core.PlacePartitioned
// on a multi-socket machine, shard p's transactions always run on the socket
// that homes shard p's data, exactly like the harness's closed-loop runs.
//
// The deployment insight this models comes from "OLTP on Hardware Islands":
// how clients are multiplexed onto shards and sockets changes the
// micro-architectural behavior as much as the engine does. oltpd makes that
// multiplexing a real, measurable serving path — connections, admission,
// batching, drain — while every transaction still flows through the traced
// memory hierarchy.
package server

import (
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/core"
	"oltpsim/internal/engine"
	"oltpsim/internal/metrics"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// Config shapes an oltpd instance.
type Config struct {
	// System selects the engine archetype (default VoltDB).
	System systems.Kind
	// Shards is the partition/worker count (default 2; forced to 1 for
	// non-partitioned archetypes by the engine itself).
	Shards int
	// Sockets overrides the simulated socket count (0 = IvyBridge default).
	Sockets int
	// Placement selects the NUMA data-home policy; PlacePartitioned homes
	// each shard's data on its worker's socket.
	Placement core.HomePlacement
	// Spec is the served workload (schema + procedures + population).
	Spec workload.Spec
	// Cluster, when set, makes this oltpd one node of a multi-process
	// cluster: the engine keeps the map's GLOBAL partition count (so key
	// routing agrees on every node) but stores and serves only the
	// partitions the map assigns to Node. Shards is ignored in cluster mode.
	Cluster *cluster.ShardMap
	// Node is this process's node ID within Cluster.
	Node int
	// TwoPCTimeout bounds how long a shard worker holds a prepared 2PC
	// branch awaiting the coordinator's decision before presuming abort
	// (default 10s). Coordinator-side vote/ack timeouts must be comfortably
	// below it.
	TwoPCTimeout time.Duration

	// AdmitQueueMax, when > 0, enables queue-depth admission control: a
	// request arriving for a shard whose queue already holds AdmitQueueMax
	// requests is shed with wire.ErrOverload instead of applying unbounded
	// backpressure. Shed requests are counted per shard in the exposition.
	AdmitQueueMax int
	// AdmitLatencyMax, when > 0, enables latency admission control: a
	// request arriving for a shard whose recent mean service latency
	// (an EWMA over completions, arrival to response) exceeds the bound —
	// while requests are still queued, so the signal is current — is shed
	// with wire.ErrOverload. Both bounds may be combined; either sheds.
	AdmitLatencyMax time.Duration
}

const (
	// batchMax caps the group-execute batch a shard worker pulls from its
	// queue in one engine acquisition.
	batchMax = 64
	// queueDepth is the per-shard admission queue capacity. A full queue
	// applies backpressure to connection readers.
	queueDepth = 1024
)

// AdmissionEnabled reports whether either admission-control bound is set.
func (c Config) AdmissionEnabled() bool {
	return c.AdmitQueueMax > 0 || c.AdmitLatencyMax > 0
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Spec.Kind == "" {
		c.Spec = workload.DefaultSpec()
	}
	if c.TwoPCTimeout <= 0 {
		c.TwoPCTimeout = 10 * time.Second
	}
	return c
}

// Server is one oltpd instance.
type Server struct {
	cfg  Config
	eng  *engine.Engine
	wl   workload.Workload
	spec string

	procNames []string
	procIDs   map[string]uint32

	ln      net.Listener
	queues  []chan *request
	workers sync.WaitGroup

	// Cluster mode: which global partitions this node serves (nil = all),
	// and the per-partition pending-decision slot for in-flight 2PC.
	owned []bool
	pend  []pendSlot

	mu       sync.RWMutex // guards draining against enqueue
	draining bool         //oltpsim:guarded-by mu
	shutOnce sync.Once    // runs the close sequence exactly once
	closed   chan struct{}

	connMu sync.Mutex
	conns  map[*conn]struct{} //oltpsim:guarded-by connMu
	connWG sync.WaitGroup
	reqWG  sync.WaitGroup // one count per admitted request, until its response is written

	// Telemetry.
	reg         *metrics.Registry
	shard       []shardStats // per-shard counters, latency and PMU observation
	connsLive   atomic.Int64
	connsTotal  atomic.Uint64
	rejectTotal atomic.Uint64 // requests refused during drain
	// started is set by Start and read by scrapes, which the registry may
	// serve before Start (oltpd binds its metrics listener first).
	started atomic.Pointer[time.Time]
	// The engine-wide half of the scrape's PMU observation (observePMU).
	txAborts, dataBytes uint64
}

// shardStats is one shard's telemetry. requests and shed are written by the
// connection readers that admit to the shard, the other counters by the
// shard's worker, and scrapes read them all.
type shardStats struct {
	svcHist  metrics.Histogram // request latency (arrival→response), ns
	requests atomic.Uint64     // admitted requests
	errors   atomic.Uint64     // failed requests
	batches  atomic.Uint64     // executed batches
	writes   atomic.Uint64     // socket writes issued by the shard worker
	prepares atomic.Uint64     // 2PC YES votes
	commits  atomic.Uint64     // 2PC branch commits
	aborts   atomic.Uint64     // 2PC branch aborts (NO votes, abort decisions, timeouts)
	shed     atomic.Uint64     // requests shed by admission control
	svcEWMA  atomic.Int64      // EWMA of service latency, ns (single writer: the shard worker)

	label metrics.Label // shard="p"
	// The scrape's PMU observation of the shard's core (observePMU).
	snap core.Snapshot
	meas core.Measurement
}

// New builds the engine, installs and populates the workload, and prepares
// (but does not start) the server. Population runs untraced, as in the
// harness: the measured serving traffic starts against a warm, resident
// dataset.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Cluster != nil {
		if cfg.Node < 0 || cfg.Node >= cfg.Cluster.Nodes {
			return nil, fmt.Errorf("server: node %d out of range for %s", cfg.Node, cfg.Cluster)
		}
		// Cluster node: the engine keeps the GLOBAL partition count so
		// Table.PartitionOf routes keys identically on every node; the owned
		// mask below restricts what this node actually stores.
		cfg.Shards = cfg.Cluster.Parts
	}
	eng := systems.New(cfg.System, systems.Options{
		Cores:     cfg.Shards,
		Sockets:   cfg.Sockets,
		Placement: cfg.Placement,
	})
	var owned []bool
	if cfg.Cluster != nil {
		if eng.Partitions() != cfg.Cluster.Parts {
			return nil, fmt.Errorf("server: archetype %s cannot shard %d ways for cluster serving (it runs %d partitions)",
				eng.Config().Name, cfg.Cluster.Parts, eng.Partitions())
		}
		owned = cfg.Cluster.OwnedMask(cfg.Node)
		eng.SetOwnedPartitions(owned)
	}
	if err := cfg.Spec.Validate(eng.Partitions()); err != nil {
		return nil, err
	}
	wl := cfg.Spec.New(eng.Partitions())
	wl.Setup(eng)
	eng.Machine().Arena.EnableTracing(false)
	wl.Populate(eng)
	eng.Machine().Arena.EnableTracing(true)

	// Multi-shard share-nothing engines serve concurrently: each shard
	// worker drives its own simulated core under its own lock, so shard
	// execution genuinely interleaves on the one machine. Archetypes that
	// don't qualify (locking, buffer pool, MVCC, per-request SQL) keep the
	// serialized session path.
	if eng.Partitions() > 1 {
		// A refusal (non-qualifying archetype) is a clean fallback, not an
		// error: the concurrent-mode gauge reports which mode is live.
		_ = eng.EnterConcurrent()
	}
	if cfg.Cluster != nil && cfg.Cluster.Parts > 1 && !eng.Concurrent() {
		// The 2PC participant path (engine staged writes) is concurrent-mode
		// only, and a multi-partition cluster without it cannot serve the
		// mis-routed fraction.
		return nil, fmt.Errorf("server: cluster serving requires a concurrent-capable archetype (share-nothing, e.g. voltdb/hyper), not %s",
			eng.Config().Name)
	}

	s := &Server{
		cfg:    cfg,
		eng:    eng,
		wl:     wl,
		spec:   cfg.Spec.String(),
		conns:  make(map[*conn]struct{}),
		closed: make(chan struct{}),
		reg:    metrics.NewRegistry(),
	}
	s.procNames = eng.Procedures()
	sort.Strings(s.procNames)
	s.procIDs = make(map[string]uint32, len(s.procNames))
	for i, n := range s.procNames {
		s.procIDs[n] = uint32(i)
	}
	s.owned = owned
	shards := s.Shards()
	s.queues = make([]chan *request, shards)
	s.pend = make([]pendSlot, shards)
	s.shard = make([]shardStats, shards)
	for i := range s.queues {
		s.queues[i] = make(chan *request, queueDepth)
		s.shard[i].label = metrics.L("shard", strconv.Itoa(i))
	}
	for _, f := range families {
		s.reg.Register(f.group, f.name, f.typ, f.help, func(emit func(metrics.Sample)) { f.collect(s, f.name, emit) })
	}
	s.reg.OnScrapeGroups(s.observePMU, groupEngine, groupTxn, groupStorage)
	return s, nil
}

// ownsShard reports whether this node serves global partition p (always
// true outside cluster mode).
func (s *Server) ownsShard(p int) bool { return s.owned == nil || s.owned[p] }

// Shards returns the number of shard workers (= engine partitions).
func (s *Server) Shards() int { return s.eng.Partitions() }

// Engine exposes the engine (tests and figures read counters through it).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Workload exposes the served workload instance (the cluster scatter-gather
// path reads per-node analytic capture state through it).
func (s *Server) Workload() workload.Workload { return s.wl }

// Registry returns the server's metrics registry; serve it over HTTP with
// net/http (it implements http.Handler).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Spec returns the canonical workload spec string exchanged in Hello.
func (s *Server) Spec() string { return s.spec }

// Start begins listening on addr (e.g. "127.0.0.1:7890"; ":0" picks a free
// port — read it back from Addr) and serving connections.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	now := time.Now()
	s.started.Store(&now)
	for w := 0; w < s.Shards(); w++ {
		if !s.ownsShard(w) {
			continue // another node's partition: no worker, conns refuse it
		}
		s.workers.Add(1)
		go s.shardWorker(w)
	}
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain in progress
		}
		s.serveConn(nc)
	}
}

// serveConn registers an accepted connection and serves it on its own
// goroutine. Registration happens under the drain lock: a connection that
// races the listener close is either in the map before Shutdown's sweep (and
// gets closed by it) or sees draining here and is refused — so connWG.Add can
// never race connWG.Wait, and no socket outlives the drain.
func (s *Server) serveConn(nc net.Conn) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		nc.Close()
		return
	}
	s.connsTotal.Add(1)
	s.connsLive.Add(1)
	c := newConn(s, nc)
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	s.connWG.Add(1)
	go c.serve()
}

func (s *Server) dropConn(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.connsLive.Add(-1)
	s.connWG.Done()
}

// admitVerdict is the outcome of routing one decoded request.
type admitVerdict int

const (
	admitOK       admitVerdict = iota // queued; the shard worker will respond
	admitDraining                     // server shutting down: refuse with ErrDraining
	admitShed                         // admission control shed it: refuse with ErrOverload
)

// admit routes a decoded request to its shard queue, or refuses it: draining
// refuses everything, and — when admission control is configured — a shard
// whose queue depth or recent service latency is over its bound sheds the
// request instead of letting the queue (and every queued request's latency)
// grow without bound. The blocking send still applies backpressure to the
// connection reader when the queue is full and admission control is off.
func (s *Server) admit(r *request) admitVerdict {
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return admitDraining
	}
	p := r.part
	if s.cfg.AdmitQueueMax > 0 && len(s.queues[p]) >= s.cfg.AdmitQueueMax {
		s.shard[p].shed.Add(1)
		s.mu.RUnlock()
		return admitShed
	}
	// The latency trigger only fires while the queue is nonempty: completions
	// of queued requests are what keep the EWMA current, so an idle shard can
	// never wedge itself shedding on a stale reading.
	if s.cfg.AdmitLatencyMax > 0 && len(s.queues[p]) > 0 &&
		time.Duration(s.shard[p].svcEWMA.Load()) > s.cfg.AdmitLatencyMax {
		s.shard[p].shed.Add(1)
		s.mu.RUnlock()
		return admitShed
	}
	s.reqWG.Add(1)
	s.shard[p].requests.Add(1)
	s.queues[p] <- r
	s.mu.RUnlock()
	return admitOK
}

// noteLatency records one completed request's arrival-to-response latency
// into the shard's service histogram and admission EWMA (gain 1/8). The
// shard worker is the only writer of its shard's EWMA, so load-then-store
// needs no CAS; admit reads it concurrently.
func (s *Server) noteLatency(w int, d time.Duration) {
	st := &s.shard[w]
	st.svcHist.Record(uint64(d))
	old := st.svcEWMA.Load()
	st.svcEWMA.Store(old + (d.Nanoseconds()-old)/8)
}

// shardWorker is the group-execute loop for one shard: it owns simulated
// core w, drains its queue in batches of up to batchMax, executes each batch
// under a single engine acquisition through its Session, and writes the
// responses — queued per connection, then one flush per connection answered.
func (s *Server) shardWorker(w int) {
	defer s.workers.Done()
	sess := s.eng.NewSession()
	q := s.queues[w]
	batch := make([]*request, 0, batchMax)
	ereqs := make([]engine.Request, batchMax)
	errs := make([]error, batchMax)
	answered := make([]*conn, 0, batchMax) // connections holding this run's answers

	for {
		r, ok := <-q
		if !ok {
			return
		}
		batch = append(batch[:0], r)
	fill:
		for len(batch) < batchMax {
			select {
			case r2, ok2 := <-q:
				if !ok2 {
					break fill // channel closed; run what we have, then exit
				}
				batch = append(batch, r2)
			default:
				break fill
			}
		}

		// 2PC prepares block the worker between vote and decision, so they
		// execute individually; runs of plain Execs between them keep the
		// group-execute batching.
		i := 0
		for i < len(batch) {
			if batch[i].is2pc {
				s.run2PCPrepare(w, sess, batch[i])
				i++
				continue
			}
			j := i
			for j < len(batch) && !batch[j].is2pc {
				ereqs[j-i] = engine.Request{Part: batch[j].part, Proc: batch[j].proc, Args: batch[j].args}
				j++
			}
			sess.InvokeBatch(w, ereqs[:j-i], errs)
			s.shard[w].batches.Add(1)

			now := time.Now()
			answered = answered[:0]
			for k := i; k < j; k++ {
				br := batch[k]
				err := errs[k-i]
				br.c.sess.Ops.Add(1)
				if err != nil {
					s.shard[w].errors.Add(1)
					br.c.sess.Errs.Add(1)
				}
				br.c.writeMu.Lock()
				br.c.queueResult(br.id, err)
				br.c.writeMu.Unlock()
				if !slices.Contains(answered, br.c) {
					answered = append(answered, br.c)
				}
				s.noteLatency(w, now.Sub(br.arrived))
			}
			// One flush per connection answered, before the requests retire
			// (reqWG) and before a 2PC prepare after the run can park us.
			for _, c := range answered {
				c.writeMu.Lock()
				if wrote, _ := c.flush(); wrote {
					s.shard[w].writes.Add(1)
				}
				c.writeMu.Unlock()
			}
			for k := i; k < j; k++ {
				s.reqWG.Done()
				putRequest(batch[k])
			}
			i = j
		}
	}
}

// pendSlot is one partition's pending-decision rendezvous: between a YES
// vote and the coordinator's decision, the shard worker parks here and any
// connection reader that decodes the matching COMMIT2PC/ABORT2PC claims the
// slot and hands the decision over. The claim protocol (flip active under
// mu, then send on the buffered channel) guarantees exactly one of
// reader/timeout consumes each prepared branch.
type pendSlot struct {
	mu     sync.Mutex
	active bool          //oltpsim:guarded-by mu
	gtid   uint64        //oltpsim:guarded-by mu
	ch     chan decision //oltpsim:guarded-by mu
}

// decision is a coordinator verdict handed from a connection reader to the
// parked shard worker (c/reqID identify the decision frame to ack).
type decision struct {
	commit bool
	c      *conn
	reqID  uint32
}

// run2PCPrepare executes one 2PC branch: prepare (staged), vote, park for
// the decision (or presume abort on timeout), resolve, ack. The worker
// blocking here is what preserves per-partition serializability between
// vote and decision — it is the partition's only executor, so nothing else
// can run on the partition while the branch is undecided.
func (s *Server) run2PCPrepare(w int, sess *engine.Session, r *request) {
	err := sess.Prepare(w, r.part, r.gtid, r.proc, r.args)
	r.c.sess.Ops.Add(1)
	if err != nil {
		// NO vote: the branch aborted during prepare, nothing is retained.
		s.shard[w].errors.Add(1)
		r.c.sess.Errs.Add(1)
		s.shard[w].aborts.Add(1)
		r.c.sendVote(r.id, false, err.Error())
		s.shard[w].writes.Add(1)
		s.finishReq(w, r)
		return
	}
	s.shard[w].prepares.Add(1)
	slot := &s.pend[w]
	ch := make(chan decision, 1)
	slot.mu.Lock()
	slot.active, slot.gtid, slot.ch = true, r.gtid, ch
	slot.mu.Unlock()
	// Vote after arming the slot: the decision can race back before the
	// vote write even returns. A failed vote write still parks — the
	// decision timeout is the backstop either way.
	r.c.sendVote(r.id, true, "")
	s.shard[w].writes.Add(1)

	var d decision
	timer := time.NewTimer(s.cfg.TwoPCTimeout)
	select {
	case d = <-ch:
	case <-timer.C:
		slot.mu.Lock()
		if slot.active && slot.gtid == r.gtid {
			slot.active = false
			slot.mu.Unlock()
			d = decision{commit: false} // presumed abort
		} else {
			// A reader claimed the slot as the timer fired; its decision is
			// already in flight on the buffered channel.
			slot.mu.Unlock()
			d = <-ch
		}
	}
	timer.Stop()

	rerr := sess.Resolve(w, r.part, r.gtid, d.commit)
	if d.commit {
		s.shard[w].commits.Add(1)
	} else {
		s.shard[w].aborts.Add(1)
	}
	if d.c != nil {
		d.c.respondID(d.reqID, rerr)
		s.shard[w].writes.Add(1)
	}
	s.finishReq(w, r)
}

// finishReq retires an admitted request after its terminal frame.
func (s *Server) finishReq(w int, r *request) {
	s.noteLatency(w, time.Since(r.arrived))
	s.reqWG.Done()
	putRequest(r)
}

// Shutdown drains the server: it stops accepting connections, refuses new
// requests (clients get ErrDraining responses), waits until every admitted
// request has had its response written, then closes every connection and
// stops the shard workers. Safe to call more than once.
func (s *Server) Shutdown() {
	s.Drain()
	s.shutOnce.Do(func() {
		// Every admitted request gets its response before the sockets close.
		s.reqWG.Wait()
		for _, q := range s.queues {
			close(q)
		}
		s.workers.Wait()

		s.connMu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		close(s.closed)
	})
	<-s.closed
}

// Drain puts the server into its draining state without closing it: the
// listener stops accepting, new requests are refused with ErrDraining, but
// established connections and already-admitted work proceed to completion.
// Idempotent; Shutdown drains first and then completes the close.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return
	}
	if s.ln != nil {
		s.ln.Close()
	}
}

// ErrDraining is the error text clients receive for requests that arrive
// while the server is shutting down (see wire.ErrDraining; the driver
// recognizes it and stops the connection cleanly).
const ErrDraining = wire.ErrDraining

// --- request pool ----------------------------------------------------------

// request is one admitted Exec or Prepare2PC, from decode to response.
type request struct {
	c       *conn
	id      uint32
	part    int
	proc    string
	args    []catalog.Value // this request's arguments: argBuf[:argc:argc]
	argBuf  []catalog.Value // pooled backing array for args
	argMem  []byte          // backing storage for TagBytes argument values
	arrived time.Time
	is2pc   bool   // Prepare2PC: execute staged, vote, await decision
	gtid    uint64 // global transaction ID (is2pc only)
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

func getRequest() *request  { return requestPool.Get().(*request) }
func putRequest(r *request) { r.c = nil; requestPool.Put(r) }

// --- metrics ---------------------------------------------------------------

// oltpd's collector groups: serving (cheap serving-path counters), twopc (2PC
// branch counters), and engine / txn / storage (the PMU families, whose
// shared observation quiesces the engine), so a high-frequency poller can
// scrape /metrics?collect=serving without ever stopping the world.
const (
	groupServing = "serving"
	groupTwoPC   = "twopc"
	groupEngine  = "engine"
	groupTxn     = "txn"
	groupStorage = "storage"
)

// A family is one row of oltpd's live telemetry: its collector group ("" =
// ungrouped, rendered on every scrape), Prometheus type, help text, and the
// collector that emits its samples.
type family struct {
	group, name, typ, help string
	collect                collector
}

// A collector emits a family's current samples under the family's name.
type collector func(s *Server, name string, emit func(metrics.Sample))

// families is oltpd's exposition, in render order. The PMU rows read the
// observation observePMU took at the start of the same scrape.
var families = []family{
	{"", "oltpd_info", "gauge", "build/topology info (value is 1)", info},
	{groupServing, "oltpd_uptime_seconds", "gauge", "seconds since Start", scalar(func(s *Server) float64 {
		if t := s.started.Load(); t != nil {
			return time.Since(*t).Seconds()
		}
		return 0
	})},
	{groupServing, "oltpd_connections", "gauge", "live client connections", scalar(func(s *Server) float64 { return float64(s.connsLive.Load()) })},
	{groupServing, "oltpd_connections_total", "counter", "accepted client connections", scalar(func(s *Server) float64 { return float64(s.connsTotal.Load()) })},
	{groupServing, "oltpd_rejected_total", "counter", "requests refused while draining", scalar(func(s *Server) float64 { return float64(s.rejectTotal.Load()) })},
	{groupServing, "oltpd_concurrent", "gauge", "1 when shard workers execute concurrently on one engine, 0 when serialized", scalar(func(s *Server) float64 {
		if s.eng.Concurrent() {
			return 1
		}
		return 0
	})},
	{groupServing, "oltpd_requests_total", "counter", "requests admitted per shard", perShard(func(st *shardStats) float64 { return float64(st.requests.Load()) })},
	{groupServing, "oltpd_request_errors_total", "counter", "failed requests per shard", perShard(func(st *shardStats) float64 { return float64(st.errors.Load()) })},
	{groupServing, "oltpd_batches_total", "counter", "group-execute batches per shard", perShard(func(st *shardStats) float64 { return float64(st.batches.Load()) })},
	{groupServing, "oltpd_writes_total", "counter", "socket writes issued by each shard's worker (responses per write = answered requests / writes)", perShard(func(st *shardStats) float64 { return float64(st.writes.Load()) })},
	{groupTwoPC, "oltpd_2pc_prepares_total", "counter", "2PC branches prepared (YES votes) per shard", perShard(func(st *shardStats) float64 { return float64(st.prepares.Load()) })},
	{groupTwoPC, "oltpd_2pc_commits_total", "counter", "2PC branches committed per shard", perShard(func(st *shardStats) float64 { return float64(st.commits.Load()) })},
	{groupTwoPC, "oltpd_2pc_aborts_total", "counter", "2PC branches aborted per shard (NO votes, abort decisions, decision timeouts)", perShard(func(st *shardStats) float64 { return float64(st.aborts.Load()) })},
	{groupServing, "oltpd_shed_total", "counter", "requests shed by admission control per shard (wire.ErrOverload)", perShard(func(st *shardStats) float64 { return float64(st.shed.Load()) })},
	{groupServing, "oltpd_admit_latency_ewma_seconds", "gauge", "per-shard service-latency EWMA driving latency admission control", perShard(func(st *shardStats) float64 { return float64(st.svcEWMA.Load()) * 1e-9 })},
	{groupTxn, "oltpd_tx_total", "counter", "committed transactions per shard (simulated PMU)", perShard(func(st *shardStats) float64 { return float64(st.snap.TxCount) })},
	{groupEngine, "oltpd_instructions_total", "counter", "retired instructions per shard (simulated PMU)", perShard(func(st *shardStats) float64 { return float64(st.snap.Instructions) })},
	{groupEngine, "oltpd_cache_misses_total", "counter", "cache misses per shard and level (simulated PMU)", perShardBy("level",
		[]string{"l1i", "l2i", "llci", "l1d", "l2d", "llcd", "llci_remote", "llcd_remote_llc", "llcd_remote_dram"},
		func(st *shardStats) []float64 {
			d := st.snap.Misses
			return []float64{float64(d.L1IMiss), float64(d.L2IMiss), float64(d.LLCIMiss),
				float64(d.L1DMiss), float64(d.L2DMiss), float64(d.LLCDMiss),
				float64(d.LLCIRemoteLLC), float64(d.LLCDRemoteLLC), float64(d.LLCDRemoteDRAM)}
		}, nil)},
	{groupEngine, "oltpd_stall_cycles_total", "counter", "stall-cycle breakdown per shard (simulated PMU)", perShardBy("component",
		[]string{"l1i", "l2i", "llci", "l1d", "l2d", "llcd", "remote_i", "remote_d"},
		func(st *shardStats) []float64 {
			c := st.meas.Stalls()
			return []float64{c.L1I, c.L2I, c.LLCI, c.L1D, c.L2D, c.LLCD, c.RemoteI, c.RemoteD}
		}, nil)},
	{groupEngine, "oltpd_ipc", "gauge", "instructions per cycle per shard (simulated PMU)", perShard(func(st *shardStats) float64 { return st.meas.IPC() })},
	{groupEngine, "oltpd_cycles_total", "counter", "modeled execution cycles per shard (simulated PMU); delta against oltpd_instructions_total yields per-interval IPC", perShard(func(st *shardStats) float64 { return st.meas.Cycles() })},
	{groupTxn, "oltpd_aborts_total", "counter", "aborted transactions (engine-wide)", scalar(func(s *Server) float64 { return float64(s.txAborts) })},
	{groupStorage, "oltpd_data_bytes", "gauge", "resident simulated data bytes", scalar(func(s *Server) float64 { return float64(s.dataBytes) })},
	{groupServing, "oltpd_request_seconds", "summary", "request latency from arrival to response per shard (wall clock)", perShardBy("quantile",
		quantileLabels, func(st *shardStats) []float64 {
			v := make([]float64, len(quantiles))
			for i, q := range quantiles {
				v[i] = st.svcHist.Quantile(q) * 1e-9
			}
			return v
		}, func(st *shardStats) float64 { return float64(st.svcHist.Count()) })},
}

// quantiles are the request-latency summary's quantiles, each labelled with
// its shortest decimal form.
var quantiles = []float64{0.5, 0.9, 0.99, 0.999}

var quantileLabels = func() (labels []string) {
	for _, q := range quantiles {
		labels = append(labels, strconv.FormatFloat(q, 'g', -1, 64))
	}
	return labels
}()

// info emits the info gauge: value 1, the topology in its labels.
func info(s *Server, name string, emit func(metrics.Sample)) {
	hcfg := s.eng.Machine().Hier.Config()
	emit(metrics.Sample{Name: name, Value: 1, Labels: []metrics.Label{
		metrics.L("system", s.eng.Config().Name),
		metrics.L("workload", s.spec),
		metrics.L("shards", strconv.Itoa(len(s.shard))),
		metrics.L("sockets", strconv.Itoa(hcfg.Sockets)),
		metrics.L("placement", placementName(hcfg.Placement)),
	}})
}

// scalar emits one unlabelled sample.
func scalar(read func(s *Server) float64) collector {
	return func(s *Server, name string, emit func(metrics.Sample)) {
		emit(metrics.Sample{Name: name, Value: read(s)})
	}
}

// perShard emits one sample per shard, labelled shard.
func perShard(read func(st *shardStats) float64) collector {
	return func(s *Server, name string, emit func(metrics.Sample)) {
		for i := range s.shard {
			st := &s.shard[i]
			emit(metrics.Sample{Name: name, Labels: []metrics.Label{st.label}, Value: read(st)})
		}
	}
}

// perShardBy emits one sample per shard and value of a second label, key:
// read returns a shard's values in vals' order. A summary passes count, and
// each shard's quantiles are followed by its name_count sample.
func perShardBy(key string, vals []string, read func(st *shardStats) []float64, count func(st *shardStats) float64) collector {
	return func(s *Server, name string, emit func(metrics.Sample)) {
		for i := range s.shard {
			st := &s.shard[i]
			for j, v := range read(st) {
				emit(metrics.Sample{Name: name, Labels: []metrics.Label{st.label, metrics.L(key, vals[j])}, Value: v})
			}
			if count != nil {
				emit(metrics.Sample{Name: name + "_count", Labels: []metrics.Label{st.label}, Value: count(st)})
			}
		}
	}
}

// CollectorGroups returns the sorted names of oltpd's collector groups.
func CollectorGroups() []string {
	var groups []string
	for _, f := range families {
		if f.group != "" && !slices.Contains(groups, f.group) {
			groups = append(groups, f.group)
		}
	}
	slices.Sort(groups)
	return groups
}

// observePMU is the PMU groups' scrape hook: under one engine-lock
// acquisition it takes every shard's snapshot and measurement and the
// engine-wide counters, so the tx/instructions/misses/stalls/IPC/cycles of
// one scrape all describe the same instant. The registry holds its render
// lock across the hook and the scrape's collects, so the observation needs
// no lock of its own and no other scrape can replace it mid-render.
func (s *Server) observePMU() {
	s.eng.Observe(func(m *core.Machine) {
		hcfg := m.Hier.Config()
		for i := range s.shard {
			st := &s.shard[i]
			st.snap = m.SnapshotCore(i)
			st.meas = core.NewMeasurement(core.Snapshot{}, st.snap, hcfg, s.eng.BaseCPI())
		}
		s.txAborts = s.eng.Aborts.Load()
		s.dataBytes = m.Arena.DataAllocated()
	})
}

func placementName(p core.HomePlacement) string {
	if p == core.PlacePartitioned {
		return "partitioned"
	}
	return "interleaved"
}
