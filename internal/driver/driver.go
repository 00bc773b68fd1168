// Package driver implements oltpdrive, a warp-style concurrent load
// generator for oltpd. One run loop composes three independent choices:
//
//   - the target: one oltpd (Addr), or a cluster of them sharing a shard map
//     (Addrs + Map), where every call is routed to its partition's owner and
//     MPRate percent of transactional calls become two-branch 2PC
//     transactions;
//   - the arrival process: closed loop (send → wait → send), or open loop at
//     Rate ops/s with fixed or Poisson spacing, optionally shaped by a
//     Profile;
//   - the observers: the final Report (p50/p90/p99/p999 over a measurement
//     window that starts after a warmup), the per-interval timeline
//     (AggInterval) and the per-request log (ReqLog).
//
// Warmup, Measure and Rate are stated in simulated time, which TimeScale
// compresses onto the wall clock (see scenario.go); at the default scale 1
// they are wall-clock values.
//
// Every answered request, on either target, is accounted by the one
// clientConn.complete, so each observer sees both targets alike.
//
// Open-loop latencies are measured from each request's *scheduled* arrival
// time, not its actual send time, so queueing delay under overload is
// charged to the server rather than silently absorbed by a slow sender
// (the coordinated-omission correction the warp-style drivers apply).
package driver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/metrics"
	"oltpsim/internal/olog"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// Config shapes a driver run.
type Config struct {
	// Addr is the oltpd address ("host:port") of a single-node target.
	Addr string
	// Addrs and Map select a cluster target instead: the oltpd node
	// addresses indexed by node ID (the length must match Map.Nodes) and the
	// shard map shared with the servers. Each driver connection then owns a
	// cluster.Conn — one socket per node, one call outstanding — so
	// concurrency is Conns, and Pipeline has nothing to cap.
	Addrs []string
	Map   *cluster.ShardMap
	// MPRate is the percentage [0,100] of transactional calls a cluster
	// target issues as two-branch multi-partition (2PC) transactions
	// spanning distinct partitions — the knob the hardware-islands
	// experiments sweep.
	MPRate int
	// Spec is the traffic to generate; it must match the server's workload
	// (the Hello exchange verifies this).
	Spec workload.Spec
	// Conns is the number of concurrent client connections (default 4).
	Conns int
	// Rate is the total offered load in simulated ops/s across all
	// connections; 0 selects closed-loop operation.
	Rate float64
	// Poisson selects exponential inter-arrival times in open loop
	// (default: fixed spacing); it needs a Rate.
	Poisson bool
	// Pipeline caps in-flight requests per connection (default 1 for closed
	// loop — the classic one-outstanding client — and 128 for open loop).
	Pipeline int
	// Warmup and Measure bound the run in simulated time: Warmup of traffic
	// to heat caches and JIT the path, then Measure of recorded traffic
	// (defaults 1s / 3s).
	Warmup, Measure time.Duration
	// Seed drives the (deterministic) per-connection generators.
	Seed uint64
	// Profile shapes the offered rate over the measurement window (open loop
	// only): the instantaneous rate at fraction f of the window is
	// Rate · Profile.Mult(f). nil = steady. See ParseProfile for the
	// vocabulary.
	Profile Profile
	// TimeScale compresses simulated time onto the wall clock: simulated
	// seconds per wall second (default 1; 60 plays a simulated minute per
	// wall second). A scale other than 1 needs an open loop.
	TimeScale float64
	// AggInterval, when positive, turns the timeline observer on: one
	// TimelineRow per AggInterval of simulated time, returned in
	// Report.Timeline.
	AggInterval time.Duration
	// Scrape, when set, is called once per timeline interval to read the
	// served oltpd's metrics (see MetricsScraper); per-shard IPC and the
	// stall mix are computed from deltas of successive scrapes. Scrape
	// failures leave those columns zero rather than failing the run.
	Scrape func() (map[string]float64, error)
	// ReqLog, when non-empty, persists one binary olog record per request
	// (scheduled/start/done times, shard, archetype, status, flags;
	// multi-partition transactions carry FlagMultiPart) to this path at the
	// end of the run. Capture is buffered per connection and allocation-free
	// on the completion path; see internal/olog.
	ReqLog string
}

// clustered reports whether the target is a cluster.
func (c Config) clustered() bool { return c.Map != nil || len(c.Addrs) > 0 }

func (c Config) withDefaults() Config {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Pipeline <= 0 {
		if c.Rate > 0 {
			c.Pipeline = 128
		} else {
			c.Pipeline = 1
		}
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 3 * time.Second
	}
	if c.Spec.Kind == "" {
		c.Spec = workload.DefaultSpec()
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	return c
}

// Report is the outcome of a run. Latency quantiles cover the measurement
// window only. Its JSON form (oltpdrive -json) carries the counters, Rate as
// RateOps and the latencies as integer nanoseconds.
type Report struct {
	Spec      string
	Shards    int
	Conns     int
	Rate      float64       `json:"RateOps"` // offered wall ops/s; 0 = closed loop
	Elapsed   time.Duration `json:"-"`
	Ops       uint64        // measured completed ops
	Errors    uint64        // measured failed ops (included in Ops)
	Rejected  uint64        // ops refused by a draining server (not in Ops)
	Shed      uint64        // ops shed by admission control (wire.ErrOverload; not in Ops)
	MultiPart uint64        // committed multi-partition (2PC) transactions — cluster target
	// DirtyDrains counts connections whose in-flight tail had to be abandoned
	// at the drain deadline instead of being reclaimed token by token; a
	// clean run reports 0.
	DirtyDrains uint64 `json:"-"`
	// Covered is the fraction of the nominal measurement window the run
	// actually covered (1.0 for a full window). A run cut short — server
	// drain or socket error — clamps Elapsed to the covered span; Covered
	// surfaces how much was lost instead of shrinking it silently.
	Covered    float64
	Throughput float64
	Mean       time.Duration `json:"MeanNs"`
	P50        time.Duration `json:"P50Ns"`
	P90        time.Duration `json:"P90Ns"`
	P99        time.Duration `json:"P99Ns"`
	P999       time.Duration `json:"P999Ns"`
	Max        time.Duration `json:"MaxNs"`

	// Hist is the merged latency histogram (nanoseconds).
	Hist *metrics.Histogram `json:"-"`
	// Timeline holds one row per aggregation interval when AggInterval was
	// set (see WriteTimelineCSV).
	Timeline []TimelineRow `json:"-"`
}

// String renders the human-readable report oltpdrive prints.
func (r *Report) String() string {
	var b strings.Builder
	mode := "closed-loop"
	if r.Rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f ops/s offered", r.Rate)
	}
	fmt.Fprintf(&b, "oltpdrive: %s  conns=%d  %s\n", r.Spec, r.Conns, mode)
	fmt.Fprintf(&b, "  window     %.2fs measured (%d shards", r.Elapsed.Seconds(), r.Shards)
	if r.Covered > 0 && r.Covered < 0.999 {
		fmt.Fprintf(&b, ", %.0f%% of nominal", r.Covered*100)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  throughput %.0f ops/s  (%d ops, %d errors, %d rejected, %d shed)\n",
		r.Throughput, r.Ops, r.Errors, r.Rejected, r.Shed)
	if r.MultiPart > 0 {
		fmt.Fprintf(&b, "  2pc        %d multi-partition commits\n", r.MultiPart)
	}
	fmt.Fprintf(&b, "  latency    mean %s  p50 %s  p90 %s  p99 %s  p999 %s  max %s\n",
		fmtDur(r.Mean), fmtDur(r.P50), fmtDur(r.P90), fmtDur(r.P99), fmtDur(r.P999), fmtDur(r.Max))
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return d.Round(time.Millisecond).String()
	}
}

// Run executes the configured load against the target and returns the
// measured report.
func Run(cfg Config) (*Report, error) {
	sim := cfg.withDefaults()
	cfg, err := sim.wallClock()
	if err != nil {
		return nil, err
	}
	if cfg.Profile != nil && cfg.Rate <= 0 {
		return nil, fmt.Errorf("driver: load profiles require open-loop operation (set Rate)")
	}
	if cfg.Poisson && cfg.Rate <= 0 {
		return nil, fmt.Errorf("driver: Poisson arrivals require open-loop operation (set Rate)")
	}
	if cfg.MPRate < 0 || cfg.MPRate > 100 {
		return nil, fmt.Errorf("driver: multi-partition rate %d%% out of [0,100]", cfg.MPRate)
	}
	if cfg.MPRate > 0 && !cfg.clustered() {
		return nil, fmt.Errorf("driver: a multi-partition rate needs a cluster target (Addrs and Map)")
	}

	// Establish every connection (Hello + prepare) before traffic starts, so
	// the warmup window measures serving, not ramp-up.
	conns := make([]*clientConn, 0, cfg.Conns)
	closeAll := func() {
		for _, c := range conns {
			c.close()
		}
	}
	for i := 0; i < cfg.Conns; i++ {
		c, err := dial(cfg, i, wire.Dial)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("driver: conn %d: %w", i, err)
		}
		conns = append(conns, c)
	}
	shards := conns[0].shards
	if err := cfg.Spec.Validate(shards); err != nil {
		closeAll()
		return nil, err
	}

	var rlog *olog.Log
	if cfg.ReqLog != "" {
		hdr := olog.Header{
			Spec:      cfg.Spec.String(),
			Shards:    shards,
			Conns:     cfg.Conns,
			Rate:      cfg.Rate,
			Seed:      cfg.Seed,
			WarmupNs:  cfg.Warmup.Nanoseconds(),
			MeasureNs: cfg.Measure.Nanoseconds(),
			Procs:     cfg.Spec.ProcNames(),
		}
		rlog, err = olog.Create(cfg.ReqLog, hdr)
		if err != nil {
			closeAll()
			return nil, err
		}
		for _, c := range conns {
			c.rlog = rlog.NewConn()
		}
	}

	base := time.Now()
	warmEnd := cfg.Warmup.Nanoseconds()
	end := warmEnd + cfg.Measure.Nanoseconds()
	var obs *observer
	if cfg.AggInterval > 0 {
		obs = &observer{cfg: sim}
		obs.start(conns, base, warmEnd, end)
	}
	var wg sync.WaitGroup
	for _, c := range conns {
		if c.wc != nil { // a cluster.Conn answers inside the send loop
			wg.Add(1)
			go func() { defer wg.Done(); c.readLoop(base) }()
		}
		wg.Add(1)
		go func() { defer wg.Done(); c.sendLoop(base, warmEnd, end) }()
	}
	wg.Wait()
	if obs != nil {
		obs.stop()
	}

	rep := &Report{
		Spec:    cfg.Spec.String(),
		Shards:  shards,
		Conns:   cfg.Conns,
		Rate:    cfg.Rate,
		Elapsed: cfg.Measure,
		Hist:    &metrics.Histogram{},
	}
	if obs != nil {
		rep.Timeline = obs.rows
	}
	var lastDone int64
	for _, c := range conns {
		rep.Hist.Merge(c.hist)
		rep.Ops += c.ops.Load()
		rep.Errors += c.errs.Load()
		rep.Rejected += c.rejected.Load()
		rep.Shed += c.shed.Load()
		if c.cc != nil {
			rep.MultiPart += c.cc.MultiPart
		}
		if c.dirty.Load() {
			rep.DirtyDrains++
		}
		if ld := c.lastMeasured.Load(); ld > lastDone {
			lastDone = ld
		}
	}
	// A run cut short (server drain, socket error) measured a
	// shorter window than configured: report throughput over the window
	// actually covered, not the nominal one — and surface the fraction so an
	// under-covered run is visible instead of silently shrunk.
	rep.Covered = 1
	if covered := time.Duration(lastDone - warmEnd); covered > 0 && covered < rep.Elapsed {
		rep.Elapsed = covered
		rep.Covered = float64(covered) / float64(cfg.Measure)
	}
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.Throughput = float64(rep.Ops) / s
	}
	rep.Mean = time.Duration(rep.Hist.Mean())
	rep.P50 = time.Duration(rep.Hist.Quantile(0.5))
	rep.P90 = time.Duration(rep.Hist.Quantile(0.9))
	rep.P99 = time.Duration(rep.Hist.Quantile(0.99))
	rep.P999 = time.Duration(rep.Hist.Quantile(0.999))
	rep.Max = time.Duration(rep.Hist.Max())
	if rlog != nil {
		if err := rlog.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// slot tracks one in-flight request.
type slot struct {
	sched   int64  // scheduled arrival, ns since base
	start   int64  // actual send, ns since base (== sched in closed loop)
	shard   uint16 // routed partition
	proc    uint16 // procedure index into Spec.ProcNames()
	measure bool   // scheduled inside the measurement window
	multi   bool   // issued as a multi-partition (2PC) transaction
}

// proc is one prepared procedure: the server's ID for it (single-node
// target; a cluster.Conn keeps its own per node) and its index into
// Spec.ProcNames(), which is what the request log records.
type proc struct {
	id  uint32
	idx uint16
}

// clientConn is one driver connection: a sender goroutine generating
// traffic and, on a single-node target, a reader goroutine matching the
// pipelined responses by request ID. Exactly one of wc and cc is set.
type clientConn struct {
	cfg    Config
	idx    int
	wc     *wire.Client  // single-node target: pipelined frames, answered on readLoop
	cc     *cluster.Conn // cluster target: routed synchronous calls, answered in sendLoop
	wl     workload.Workload
	rng    *workload.Rand
	shards int
	procs  map[string]proc
	args   []catalog.Value // first-branch argument copy for a multi-partition draw
	rlog   *olog.ConnLog   // request-log capture buffer; nil when -reqlog is off

	window int
	ring   []slot
	// tokens carries free slot indexes: a slot is exclusively owned from the
	// moment the sender receives its index until complete() finishes with
	// the matching response and returns it. Responses may complete out of
	// order across shards, so slots cannot simply be reqID mod window — the
	// free-list is what prevents a live slot from being overwritten (and the
	// channel hand-off is the happens-before edge between the two
	// goroutines' accesses to the slot). tokens is never closed — a sender
	// that took a slot and then stopped can always hand it back; done (closed
	// by the reader on exit) is what wakes a sender blocked on an empty
	// free list.
	tokens chan int
	done   chan struct{}

	hist     *metrics.Histogram
	ops      atomic.Uint64
	errs     atomic.Uint64
	rejected atomic.Uint64
	shed     atomic.Uint64
	stop     atomic.Bool
	dirty    atomic.Bool // finish() abandoned the in-flight tail at its deadline
	inflight atomic.Int64
	// lastMeasured is the completion time (ns since base) of the newest
	// response recorded in the measurement window; it bounds the effective
	// window when a run ends early (server drain, socket error).
	lastMeasured atomic.Int64
}

// dial connects one driver connection to the target — a wire.Client from
// dialWire (verifying the Hello's workload spec and preparing every procedure
// the generator can emit) or a cluster.Conn, which does the same per node.
func dial(cfg Config, idx int, dialWire func(addr string) (*wire.Client, error)) (*clientConn, error) {
	c := &clientConn{
		cfg:    cfg,
		idx:    idx,
		rng:    workload.NewRand(cfg.Seed ^ 0x5eed<<32 ^ uint64(idx)*1_000_003),
		procs:  make(map[string]proc),
		window: cfg.Pipeline,
		hist:   &metrics.Histogram{},
	}
	c.ring = make([]slot, c.window)
	c.tokens = make(chan int, c.window)
	c.done = make(chan struct{})
	for i := 0; i < c.window; i++ {
		c.tokens <- i
	}
	if cfg.clustered() {
		cc, err := cluster.Dial(cluster.Config{Addrs: cfg.Addrs, Map: cfg.Map, Spec: cfg.Spec})
		if err != nil {
			return nil, err
		}
		c.cc, c.shards = cc, cfg.Map.Parts
	} else {
		wc, err := dialWire(cfg.Addr)
		if err != nil {
			return nil, err
		}
		c.wc, c.shards = wc, wc.Shards
		if want := cfg.Spec.String(); wc.Spec != want {
			wc.Close()
			return nil, fmt.Errorf("workload mismatch: server serves %q, driver generates %q", wc.Spec, want)
		}
	}
	for i, name := range cfg.Spec.ProcNames() {
		p := proc{idx: uint16(i)}
		if c.wc != nil {
			var err error
			if p.id, err = c.wc.Prepare(name); err != nil {
				c.close()
				return nil, err
			}
		}
		c.procs[name] = p
	}
	c.wl = cfg.Spec.New(c.shards)
	return c, nil
}

// close tears the target connection down, releasing a blocked reader.
func (c *clientConn) close() {
	if c.cc != nil {
		c.cc.Close()
	} else {
		c.wc.Close()
	}
}

// sendLoop generates and issues requests until the measurement window ends
// (or the server starts draining), then waits out the in-flight tail and
// closes the connection to release the reader. A request is queued, not
// written: whatever is queued is flushed before the sender waits for a slot,
// before the pacer's sleep and in finish — one Write per burst, one frame per
// Write at Pipeline 1.
func (c *clientConn) sendLoop(base time.Time, warmEnd, end int64) {
	defer c.finish()

	var pc *pacer // open loop: the deterministic (profile-shaped) arrival schedule
	measure := float64(end - warmEnd)
	if c.cfg.Rate > 0 {
		pc = newPacer(c.cfg, c.idx)
	}
	part := c.idx % c.shards

	for !c.stop.Load() {
		now := time.Since(base).Nanoseconds()
		sched := now
		if pc != nil {
			sched = warmEnd + int64(pc.next()*measure)
			if sched > now {
				if !c.flush() {
					return
				}
				time.Sleep(time.Duration(sched-now) * time.Nanosecond)
			}
		}
		if sched >= end {
			return
		}
		if len(c.tokens) == 0 && !c.flush() { // about to wait for a slot
			return
		}
		var slotIdx int
		select {
		case slotIdx = <-c.tokens: // in-flight cap (and the closed-loop pacing itself)
		case <-c.done:
			return
		}
		if c.stop.Load() {
			// Stopped after winning the slot: hand the token back so finish()
			// can account for the whole free list and drain cleanly instead of
			// leaning on its deadline. Never blocks — we hold the only claim
			// on this token and capacity equals the slot count.
			c.tokens <- slotIdx
			return
		}

		p := part
		part = (part + 1) % c.shards
		call := c.wl.Gen(c.rng, p, c.shards)
		pr, ok := c.procs[call.Proc]
		if !ok {
			panic(fmt.Sprintf("driver: generator emitted unprepared procedure %q", call.Proc))
		}
		sl := &c.ring[slotIdx]
		start := time.Since(base).Nanoseconds() // open loop: the sender may lag its schedule
		if pc == nil {
			sched = start // closed loop: scheduled = actual send
		}
		sl.sched = sched
		sl.start = start
		sl.shard = uint16(p)
		sl.proc = pr.idx
		sl.measure = sched >= warmEnd && sched < end
		sl.multi = false

		c.inflight.Add(1)
		if c.cc != nil {
			err := c.route(sl, p, call)
			c.complete(slotIdx, err, time.Since(base).Nanoseconds())
		} else {
			c.wc.QueueExec(uint32(slotIdx), pr.id, p, call.Args) // request ID = the owned slot index
		}
	}
}

// flush writes the requests the sender queued (a cluster.Conn writes inside
// each call); false means the socket is gone and the sender stops.
func (c *clientConn) flush() bool {
	if c.wc != nil && c.wc.Flush() != nil {
		c.stop.Store(true)
		return false
	}
	return true
}

// route issues one generated call on the cluster target and waits for its
// answer: an analytic scatters to every node, MPRate percent of the rest
// become two-branch 2PC transactions, everything else goes to its
// partition's owner.
func (c *clientConn) route(sl *slot, p int, call workload.Call) error {
	switch {
	case strings.HasPrefix(call.Proc, "olap_"):
		return c.cc.ExecAll(call.Proc, call.Args)
	case c.shards > 1 && c.cfg.MPRate > 0 && c.rng.Intn(100) < c.cfg.MPRate:
		// Two-branch 2PC: this call plus a second generated for another
		// partition. Gen recycles its argument buffer, so the first call's
		// args are copied before the second draw.
		c.args = append(c.args[:0], call.Args...)
		pp := (p + 1 + c.rng.Intn(c.shards-1)) % c.shards
		c2 := c.wl.Gen(c.rng, pp, c.shards)
		if strings.HasPrefix(c2.Proc, "olap_") {
			// The second draw came out analytic (hybrid workload): a
			// cross-partition procedure cannot be a 2PC branch, so run the
			// pair as a single-partition exec plus a scatter-gather analytic
			// instead of mis-routing the analytic through 2PC.
			if err := c.cc.Exec(p, call.Proc, c.args); err != nil {
				return err
			}
			return c.cc.ExecAll(c2.Proc, c2.Args)
		}
		sl.multi = true
		return c.cc.ExecMulti([]cluster.Branch{
			{Part: p, Proc: call.Proc, Args: c.args},
			{Part: pp, Proc: c2.Proc, Args: c2.Args},
		})
	default:
		return c.cc.Exec(p, call.Proc, call.Args)
	}
}

// finish flushes what the sender still holds, reclaims the in-flight tail
// (bounded) and closes the connection. A deadline firing means tokens went
// missing or the server sat on responses — it is recorded in dirty and
// surfaces as Report.DirtyDrains.
func (c *clientConn) finish() {
	defer c.close()
	c.flush()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for c.inflight.Load() > 0 {
		select {
		case <-c.tokens:
		case <-c.done:
			// Reader gone (socket error or drain): the in-flight tail is
			// forfeited, nothing more will arrive.
			return
		case <-deadline.C:
			c.dirty.Store(true)
			return
		}
	}
}

// readLoop consumes a single-node target's pipelined responses and
// completes the slot each one names.
func (c *clientConn) readLoop(base time.Time) {
	defer close(c.done) // wake and stop a sender blocked on a slot
	defer c.stop.Store(true)
	for {
		id, typ, r, err := c.wc.Recv()
		if err != nil || int(id) >= c.window { // socket gone, or a corrupt response ID
			return
		}
		if typ != wire.MsgOK {
			err = wire.Ack(typ, r)
			if _, answered := err.(wire.ServerError); !answered {
				return // truncated Err frame, or a frame no request asked for
			}
		}
		c.complete(int(id), err, time.Since(base).Nanoseconds())
	}
}

// classify maps one request's failed answer onto the request log's status
// vocabulary and says whether the connection must wind down — the one
// reading of an outcome both targets share. A draining server refuses
// everything from here on, so the connection stops; an overload shed and a
// procedure or 2PC abort are definitive answers about this request only;
// anything that is neither a server answer nor a clean abort is a transport
// failure.
func classify(err error) (status olog.Status, stop bool) {
	var se wire.ServerError
	answered := errors.As(err, &se)
	switch {
	case se == wire.ErrDraining:
		return olog.StatusDrain, true
	case se == wire.ErrOverload:
		return olog.StatusOverload, false
	default:
		return olog.StatusAbort, !answered && !errors.Is(err, cluster.ErrAborted)
	}
}

// complete accounts one answered request and frees its slot: the request-log
// record, the latency histogram, the ops/errors/rejected/shed counters and
// the covered-window mark all happen here and nowhere else, whichever
// target answered.
func (c *clientConn) complete(slotIdx int, err error, now int64) {
	sl := &c.ring[slotIdx]
	status, stop := olog.StatusOK, false
	if err != nil {
		status, stop = classify(err)
	}
	if c.rlog != nil {
		var flags uint8
		if sl.measure {
			flags |= olog.FlagMeasured
		}
		if sl.multi {
			flags |= olog.FlagMultiPart
		}
		c.rlog.Record(olog.Rec{
			Sched:  sl.sched,
			Start:  sl.start,
			Done:   now,
			Shard:  sl.shard,
			Proc:   sl.proc,
			Status: status,
			Flags:  flags,
		})
	}
	switch {
	case status == olog.StatusDrain:
		c.rejected.Add(1)
	case !sl.measure:
	case status == olog.StatusOverload:
		// Shed by admission control: the server refused this one request but
		// the connection lives on — count it, keep the offered schedule, and
		// leave the latency histogram alone (a fast reject is not a serviced
		// op).
		c.shed.Add(1)
	default:
		lat := now - sl.sched
		if lat < 0 {
			lat = 0
		}
		c.hist.Record(uint64(lat))
		c.ops.Add(1)
		if status != olog.StatusOK {
			c.errs.Add(1)
		}
		if now > c.lastMeasured.Load() {
			c.lastMeasured.Store(now)
		}
	}
	if stop {
		c.stop.Store(true)
	}
	c.inflight.Add(-1)
	c.tokens <- slotIdx // return the slot (never blocks: capacity = window)
}
