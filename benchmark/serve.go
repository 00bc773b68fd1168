package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oltpsim/internal/analyze"
	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/driver"
	"oltpsim/internal/engine"
	"oltpsim/internal/metrics"
	"oltpsim/internal/olog"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// serveDef is one serving workload: an in-process oltpd (or two, clustered)
// on loopback, driven by internal/driver with serveConns connections.
type serveDef struct {
	name     string
	sys      systems.Kind
	spec     workload.Spec
	rate     float64 // > 0: open loop, Poisson arrivals at this offered rate
	pipeline int     // closed loop: requests in flight per connection (0 = 1)
	cluster  bool    // two nodes sharing a range shard map, 2PC for clusterMPRate%
}

var (
	// The engine is a small part of this trip: wire, server and driver do
	// most of the work, so engine changes should not move it. Each connection
	// keeps lightPipeline requests in flight, so both processors stay busy:
	// with one in flight the trip is mostly the wait for an idle processor to
	// wake, which is the host's doing and halves or doubles with its mood.
	serveLight = serveDef{name: "serve_light", sys: systems.HyPer, pipeline: lightPipeline,
		spec: workload.Spec{Kind: "micro", Rows: serveMicroRows, RowsPerTx: 1}}
	// Most of this trip is Engine.Invoke in concurrent mode, so engine and
	// core changes move it and serving-path changes should not.
	serveHeavy = serveDef{name: "serve_heavy", sys: systems.VoltDB,
		spec: workload.Spec{Kind: "tpcc", Warehouses: 2}}
	// Writes, on a schedule: the pacer, the sender and the queues do the work.
	serveOpen = serveDef{name: "serve_open", sys: systems.VoltDB, rate: openRate,
		spec: workload.Spec{Kind: "micro", Rows: serveMicroRows, RowsPerTx: 1, ReadWrite: true}}
	// The only workload through cluster.Conn routing and the 2PC coordinator.
	cluster2PC = serveDef{name: "cluster_2pc", sys: systems.VoltDB, cluster: true,
		spec: workload.Spec{Kind: "tpcb", Branches: 8}}
)

// target is the system under test, started.
type target struct {
	def     *serveDef
	servers []*server.Server
	addrs   []string
	smap    *cluster.ShardMap
}

// startTarget is the serving set-up: engine build, workload Setup and
// Populate (server.New), Start, and one client's dial and prepare.
func startTarget(def *serveDef) (*target, error) {
	t := &target{def: def}
	nodes := 1
	if def.cluster {
		m, err := cluster.NewMap("range", 2, serveShards)
		if err != nil {
			return nil, err
		}
		t.smap, nodes = m, m.Nodes
	}
	for node := 0; node < nodes; node++ {
		s, err := server.New(server.Config{System: def.sys, Shards: serveShards, Spec: def.spec, Cluster: t.smap, Node: node})
		if err == nil {
			err = s.Start("127.0.0.1:0")
		}
		if err != nil {
			t.shutdown()
			return nil, err
		}
		t.servers = append(t.servers, s)
		t.addrs = append(t.addrs, s.Addr().String())
	}
	var err error
	if def.cluster {
		var c *cluster.Conn
		if c, err = cluster.Dial(cluster.Config{Addrs: t.addrs, Map: t.smap, Spec: def.spec}); err == nil {
			c.Close()
		}
	} else {
		var c *rawClient
		if c, err = dialRaw(t.addrs[0], def.spec.ProcNames()); err == nil {
			c.nc.Close()
		}
	}
	if err != nil {
		t.shutdown()
		return nil, err
	}
	return t, nil
}

func (t *target) shutdown() {
	for _, s := range t.servers {
		s.Shutdown()
	}
}

// pass is one driver run against the target.
type pass struct {
	seed     uint64
	warm     time.Duration
	measure  time.Duration
	conns    int
	rate     float64 // 0 = closed loop
	pipeline int     // closed loop: in flight per connection (0 = 1)
	mpRate   int
	reqLog   string
}

func (t *target) drive(p pass) (*driver.Report, error) {
	if t.def.cluster {
		return driver.RunCluster(driver.ClusterConfig{Addrs: t.addrs, Map: t.smap, Spec: t.def.spec,
			Conns: p.conns, MPRate: p.mpRate, Warmup: p.warm, Measure: p.measure, Seed: p.seed, ReqLog: p.reqLog})
	}
	return driver.Run(driver.Config{Addr: t.addrs[0], Spec: t.def.spec, Conns: p.conns, Rate: p.rate, Pipeline: p.pipeline,
		Poisson: p.rate > 0, Warmup: p.warm, Measure: p.measure, Seed: p.seed, ReqLog: p.reqLog})
}

// scrape renders the named collector groups of every node and sums each
// family over nodes and labels ("oltpd_requests_total" -> total).
func (t *target) scrape(groups ...string) (map[string]float64, error) {
	sums := make(map[string]float64)
	for _, s := range t.servers {
		text, err := s.Registry().RenderGroups(groups)
		if err != nil {
			return nil, err
		}
		samples, err := metrics.Parse(text)
		if err != nil {
			return nil, err
		}
		for key, v := range samples {
			if strings.Contains(key, "quantile=") {
				continue // quantiles do not add up
			}
			name, _, _ := strings.Cut(key, "{")
			sums[name] += v
		}
	}
	return sums, nil
}

// serviceP50Us is the servers' own arrival-to-response median since start,
// averaged over the shards that served anything. (The registry exports the
// quantiles and the count of oltpd_request_seconds but no sum, so a mean is
// not available from outside.)
func (t *target) serviceP50Us() float64 {
	var sum float64
	var n int
	for _, s := range t.servers {
		text, err := s.Registry().RenderGroups([]string{"serving"})
		if err != nil {
			continue
		}
		samples, _ := metrics.Parse(text)
		for key, v := range samples {
			if strings.HasPrefix(key, "oltpd_request_seconds{") && strings.Contains(key, `quantile="0.5"`) && v > 0 {
				sum += v * 1e6
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runServe runs a serving workload. One operation is one request. The window
// is cut into serveWindows sub-windows, each its own driver run with its own
// derived seed; the reported throughput and latencies are the quiet
// deciles over the sub-windows (see quietDecile). The sub-windows are
// shared out equally over the set-up repetitions: each repetition starts a
// fresh server (timed: setup_s), measures its share, drains the server and
// checks its books against the clients'.
func runServe(o runOpts, def serveDef) *result {
	res := newResult()
	oneProcessor()
	reps := o.setupReps(serveSetupReps)
	goBefore := readGoCounters()
	var setups []float64
	var win serveSamples
	for rep := 0; rep < reps && res.failed == 0; rep++ {
		betweenSetups()
		sp := o.tr.begin("server.New+Start+dial", rootSpan, 0)
		t0 := time.Now()
		tgt, err := startTarget(&def)
		setups = append(setups, time.Since(t0).Seconds())
		o.tr.end(sp)
		if err != nil {
			res.fail("setup: %v", err)
			return res
		}
		acct := &serveAccount{}
		if o.trace {
			traceServe(o, &def, tgt, res, acct)
		} else {
			measureServe(o, &def, tgt, res, acct, &win, rep*serveWindows/reps, (rep+1)*serveWindows/reps)
		}
		// Drain, then check what the servers saw against what the clients saw.
		t0 = time.Now()
		tgt.shutdown()
		res.m["server.drain_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		checkServe(tgt, res, acct)
	}
	res.m["setup_s"] = quietDecile(setups, false)
	res.m["server.new_s"] = setups[len(setups)-1]
	if !o.trace && len(win.thr) == serveWindows {
		res.note("sub-windows: throughput %.0f, p50 %.1f, tail %.0f", win.thr, win.p50, win.tail)
		res.note("latency: n=%d samples in %d sub-windows on %d servers, tail read at p%g of each", win.n, serveWindows, reps, serveTail*100)
		res.m["throughput_ops_s"] = quietDecile(win.thr, true)
		res.m["latency_p50_us"] = quietDecile(win.p50, false)
		res.m["latency_tail_us"] = quietDecile(win.tail, false)
		res.setGo(goBefore, res.attempted)
	}
	return res
}

// serveAccount is the clients' side of the books.
type serveAccount struct {
	ops       int64 // measured ops the driver reports reported
	logged    int64 // records in request logs
	raw       int64 // frames the benchmark's own clients sent that a server admits (requests and 2PC prepares)
	allLogged bool  // every driver pass wrote a request log
	multiPart int64 // committed 2PC transactions the clients report
}

// addReport books one driver report; errors, refusals and shed requests are
// failed operations.
func (a *serveAccount) addReport(res *result, rep *driver.Report) {
	a.ops += int64(rep.Ops)
	a.multiPart += int64(rep.MultiPart)
	res.attempted += int64(rep.Ops + rep.Rejected + rep.Shed)
	if bad := int64(rep.Errors + rep.Rejected + rep.Shed); bad > 0 {
		res.fail("driver: %d errors, %d rejected, %d shed", rep.Errors, rep.Rejected, rep.Shed)
		res.failed += bad - 1 // fail counted one
	}
	if rep.DirtyDrains != 0 {
		res.fail("driver: %d connections abandoned unanswered requests at drain", rep.DirtyDrains)
	}
	if rep.Covered < 0.9 {
		res.fail("driver: run covered only %.0f%% of its window", rep.Covered*100)
	}
}

func (o runOpts) logPath(def *serveDef, tag string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-%s.olog", def.name, o.seed, tag))
}

// serveSamples holds one value per sub-window of the untraced pass.
type serveSamples struct {
	thr, p50, tail []float64
	n              int // latency samples behind them
}

// measureServe drives sub-windows [first, end) of the untraced pass against
// one server.
func measureServe(o runOpts, def *serveDef, tgt *target, res *result, acct *serveAccount, win *serveSamples, first, end int) {
	sub := time.Duration(o.seconds / serveWindows * float64(time.Second))
	warm := time.Duration(serveWarmup * float64(time.Second))
	if warm > sub/4 {
		warm = sub / 4
	}
	acct.allLogged = def.rate > 0
	for k := first; k < end; k++ {
		p := pass{seed: o.seed*1000 + uint64(k), warm: warm, measure: sub - warm, conns: serveConns, rate: def.rate, pipeline: def.pipeline}
		if def.cluster {
			p.mpRate = clusterMPRate
		}
		if def.rate > 0 {
			p.reqLog = o.logPath(def, fmt.Sprintf("w%d", k))
		}
		rep, err := tgt.drive(p)
		if err != nil {
			res.fail("driver: %v", err)
			return
		}
		acct.addReport(res, rep)
		if def.rate > 0 {
			st, err := accountOpen(p, acct)
			os.Remove(p.reqLog)
			if err != nil {
				res.fail("request log: %v", err)
				return
			}
			win.thr = append(win.thr, st.throughput)
			win.p50 = append(win.p50, st.lat.p50)
			win.tail = append(win.tail, st.lat.tail)
			win.n += st.lat.n
			if st.backlog {
				res.note("sub-window %d: backlog at %.0f ops/s offered", k, def.rate)
			}
			continue
		}
		cnt := int(rep.Hist.Count())
		win.n += cnt
		win.thr = append(win.thr, float64(rep.Ops-rep.Errors)/rep.Elapsed.Seconds())
		win.p50 = append(win.p50, rep.Hist.Quantile(0.5)/1e3)
		win.tail = append(win.tail, rep.Hist.Quantile(serveTail)/1e3)
		if !o.smoke && tailQuantile(cnt) < serveTail {
			res.note("sub-window %d: fewer than ten of %d samples beyond p%g", k, cnt, serveTail*100)
		}
	}
}

// accountOpen reads a pass's request log and accounts its window.
func accountOpen(p pass, acct *serveAccount) (openStats, error) {
	_, recs, err := olog.ReadFile(p.reqLog)
	if err != nil {
		return openStats{}, err
	}
	acct.logged += int64(len(recs))
	return openWindow(recs, p.warm.Nanoseconds(), (p.warm + p.measure).Nanoseconds(),
		int64(sloLimitMs*1e6), int64(rateLimitMs*1e6)), nil
}

// checkServe compares the servers' books with the clients' after the drain.
func checkServe(tgt *target, res *result, acct *serveAccount) {
	srv, err := tgt.scrape("serving", "twopc")
	if err != nil {
		res.fail("scrape: %v", err)
		return
	}
	for _, name := range []string{"oltpd_request_errors_total", "oltpd_shed_total", "oltpd_rejected_total", "oltpd_2pc_aborts_total"} {
		if srv[name] != 0 {
			res.fail("server counted %s = %.0f", name, srv[name])
		}
	}
	admitted := int64(srv["oltpd_requests_total"])
	if answered := int64(srv["oltpd_request_seconds_count"]); answered != admitted {
		res.fail("server admitted %d requests and answered %d", admitted, answered)
	}
	if acct.allLogged {
		if sent := acct.logged + acct.raw; admitted != sent {
			res.fail("clients logged %d requests, servers admitted %d", sent, admitted)
		}
	} else if admitted < acct.ops+acct.raw {
		res.fail("clients completed %d requests, servers admitted only %d", acct.ops+acct.raw, admitted)
	}
	if !tgt.def.cluster {
		return
	}
	// 2PC atomicity: every transaction the coordinators report committed
	// committed both of its branches, and nothing else committed a branch.
	prepares, commits := int64(srv["oltpd_2pc_prepares_total"]), int64(srv["oltpd_2pc_commits_total"])
	if commits != 2*acct.multiPart || prepares != commits {
		res.fail("2PC: clients committed %d transactions, servers prepared %d and committed %d branches", acct.multiPart, prepares, commits)
	}
	// TPC-B's invariant per node: every committed account_update moved the
	// same delta on one account, one teller and one branch, and wrote one
	// history row. Two drivers number history rows independently, so rows
	// can collide; the row count is bounded, not pinned.
	var history int64
	for node, s := range tgt.servers {
		w, ok := s.Workload().(*workload.TPCB)
		if !ok {
			res.fail("node %d does not serve TPC-B", node)
			continue
		}
		branch, teller, account, hist := w.Tables()
		cfg := w.Config()
		b := sumColumn(branch, int64(cfg.Branches), 1)
		t := sumColumn(teller, int64(cfg.Branches)*workload.TellersPerBranch, 2)
		a := sumColumn(account, w.Accounts(), 2)
		if a != t || t != b {
			res.fail("node %d: balances disagree: accounts %d, tellers %d, branches %d", node, a, t, b)
		}
		history += int64(hist.Count())
	}
	if committed := admitted - prepares + commits; history > committed || history == 0 {
		res.fail("history holds %d rows for %d committed updates", history, committed)
	}
}

// sumColumn adds column col over keys [0, n) of the rows this node stores.
func sumColumn(t *engine.Table, n int64, col int) int64 {
	var sum int64
	key := make([]catalog.Value, 1)
	for i := int64(0); i < n; i++ {
		key[0] = catalog.LongVal(i)
		if row, ok := t.LookupRow(key); ok {
			sum += row[col].I
		}
	}
	return sum
}

// traceServe is the traced pass: the same target, driven in shorter windows
// with the request log on and off, plus the rungs between the engine and the
// driver, each timed from here around the layer's public calls.
func traceServe(o runOpts, def *serveDef, tgt *target, res *result, acct *serveAccount) {
	frac := func(f float64) time.Duration { return time.Duration(o.seconds * f * float64(time.Second)) }
	// window cuts a share of the run into a short warm-up and the rest.
	window := func(f float64, p pass) pass {
		p.warm = min(frac(f)/5, 200*time.Millisecond)
		p.measure = frac(f) - p.warm
		return p
	}
	drive := func(name string, p pass) *driver.Report {
		var rep *driver.Report
		var err error
		o.tr.do(name, rootSpan, func() { rep, err = tgt.drive(p) })
		if err != nil {
			res.fail("%s: %v", name, err)
			return nil
		}
		acct.addReport(res, rep)
		return rep
	}
	goBefore := readGoCounters()
	mp := 0
	if def.cluster {
		mp = clusterMPRate
	}

	var clientP50, service float64
	if def.rate > 0 {
		// The open-loop ladder: four fixed rates, each accounted from its
		// request log. max_rate_ok is the highest step that met the limit.
		maxOK := 0.0
		for _, rate := range openSteps {
			tag := fmt.Sprintf("r%dk", int(rate/1000))
			p := window(0.14, pass{seed: o.seed*1000 + uint64(rate), conns: serveConns, rate: rate, reqLog: o.logPath(def, tag)})
			if drive("driver.Run:open:"+tag, p) == nil {
				return
			}
			st, err := accountOpen(p, acct)
			if err != nil {
				res.fail("request log: %v", err)
				return
			}
			res.m["driver.open_p99_us_"+tag] = st.lat.tail
			res.m["driver.open_backlog_"+tag] = 0
			if st.backlog {
				res.m["driver.open_backlog_"+tag] = 1
			}
			if st.rateOK() {
				maxOK = rate
			}
			if rate == def.rate {
				// The servers' quantiles are cumulative: read them before
				// the overloaded steps swamp them.
				service = tgt.serviceP50Us()
				clientP50 = st.lat.p50
				res.m["driver.slo_ok_frac"] = st.sloOKFrac
				res.m["driver.sender_lag_p50_us"] = st.lagP50Us
				res.m["driver.sender_lag_p99_us"] = st.lagP99Us
			}
		}
		res.m["driver.max_rate_ok_ops_s"] = maxOK
	} else {
		// Request log off, then on: the difference is what capturing costs.
		off := drive("driver.Run:reqlog-off", window(0.18, pass{seed: o.seed * 1000, conns: serveConns, pipeline: def.pipeline, mpRate: mp}))
		logPath := o.logPath(def, "traced")
		on := drive("driver.Run:reqlog-on", window(0.18, pass{seed: o.seed*1000 + 1, conns: serveConns, pipeline: def.pipeline, mpRate: mp, reqLog: logPath}))
		if off == nil || on == nil {
			return
		}
		clientP50 = off.Hist.Quantile(0.5) / 1e3
		service = tgt.serviceP50Us()
		res.m["olog.capture_overhead_pct"] = (off.Throughput - on.Throughput) / off.Throughput * 100
		if fi, err := os.Stat(logPath); err == nil && on.Ops > 0 {
			var ar *analyze.Result
			sp := o.tr.do("analyze.AnalyzeFile", rootSpan, func() { ar, err = analyze.AnalyzeFile(logPath, analyze.Options{}) })
			if err != nil {
				res.fail("analyze: %v", err)
				return
			}
			res.m["olog.bytes_per_req"] = float64(fi.Size()) / float64(ar.Records)
			res.m["analyze.recs_per_s"] = float64(ar.Records) / o.tr.seconds(sp)
			if def.cluster {
				_, recs, _ := olog.ReadFile(logPath)
				var tried, committed float64
				for _, r := range recs {
					if r.MultiPart() {
						tried++
						if r.Status == olog.StatusOK {
							committed++
						}
					}
				}
				if tried > 0 {
					res.m["cluster.mp_commit_frac"] = committed / tried
				}
			}
		}
	}

	// The servers' own view of the passes above.
	if srv, err := tgt.scrape("serving", "twopc"); err == nil {
		if b := srv["oltpd_batches_total"]; b > 0 {
			res.m["server.batch_size_mean"] = (srv["oltpd_requests_total"] - srv["oltpd_2pc_prepares_total"]) / b
		}
		res.m["server.twopc_prepares"] = srv["oltpd_2pc_prepares_total"]
		res.m["server.twopc_commits"] = srv["oltpd_2pc_commits_total"]
		res.m["server.twopc_aborts"] = srv["oltpd_2pc_aborts_total"]
	}
	res.m["server.service_p50_us"] = service
	res.m["driver.outside_server_us"] = clientP50 - service
	res.m["metrics.scrape_serving_ms"] = timeScrapes(tgt, 9, "serving")
	res.m["metrics.scrape_engine_ms"] = timeScrapes(tgt, 5, "engine")

	// One connection, one request in flight, through the driver.
	if rep := drive("driver.Run:conn1", window(0.07, pass{seed: o.seed*1000 + 2, conns: 1})); rep != nil {
		res.m["driver.rtt_conn1_us"] = rep.Hist.Quantile(0.5) / 1e3
	}
	// The same trip through the benchmark's own minimal wire client.
	raw, pipe8, sent, err := rawTrips(o, def, tgt, frac(0.05), frac(0.03))
	acct.raw += sent
	res.attempted += sent
	if err != nil {
		res.fail("raw client: %v", err)
		return
	}
	res.m["server.rtt_raw_us"] = raw
	res.m["server.rtt_raw_pipe8_us"] = pipe8
	res.m["driver.self_us"] = res.m["driver.rtt_conn1_us"] - raw

	if def.cluster {
		exec, multi, sent, committed, err := clusterTrips(o, def, tgt, frac(0.05))
		acct.raw += sent
		acct.multiPart += committed
		res.attempted += sent - committed
		if err != nil {
			res.fail("cluster client: %v", err)
			return
		}
		res.m["cluster.exec_us"] = exec
		res.m["cluster.exec_multi_us"] = multi
		res.m["cluster.self_us"] = exec - raw
	}
	res.setGo(goBefore, res.attempted)

	runLadder(o, res, ladderSpec{kind: def.sys, spec: def.spec, cores: serveShards})
	res.m["server.self_us"] = service - res.m["engine.invoke_us"]
}

// timeScrapes returns the median milliseconds of n renders of one collector
// group on node 0 (the engine group quiesces the shards to read the PMU).
func timeScrapes(tgt *target, n int, group string) float64 {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := tgt.servers[0].Registry().RenderGroups([]string{group}); err != nil {
			return 0
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// rawClient is the benchmark's own minimal internal/wire client: hello,
// prepare, exec, one frame per response. It is the rung under the driver.
type rawClient struct {
	nc    net.Conn
	br    *bufio.Reader
	buf   []byte
	wbuf  wire.Buffer
	procs map[string]uint32
}

func dialRaw(addr string, procs []string) (*rawClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &rawClient{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), procs: make(map[string]uint32)}
	typ, _, err := c.readFrame()
	if err == nil && typ != wire.MsgHello {
		err = fmt.Errorf("expected hello, got frame %#x", typ)
	}
	for _, name := range procs {
		if err != nil {
			break
		}
		c.wbuf.Reset(wire.MsgPrepare)
		c.wbuf.U32(0)
		c.wbuf.Str(name)
		if _, err = nc.Write(c.wbuf.Bytes()); err != nil {
			break
		}
		var payload []byte
		if typ, payload, err = c.readFrame(); err != nil {
			break
		}
		if typ != wire.MsgPrepared {
			err = fmt.Errorf("prepare %s: frame %#x", name, typ)
			break
		}
		r := wire.NewReader(payload)
		_ = r.U32()
		c.procs[name] = r.U32()
		err = r.Err
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *rawClient) readFrame() (byte, []byte, error) {
	typ, payload, buf, err := wire.ReadFrame(c.br, c.buf)
	c.buf = buf
	return typ, payload, err
}

// encodeExec builds one EXEC frame the way the driver does.
func encodeExec(w *wire.Buffer, id, procID uint32, part int, args []catalog.Value) {
	w.Reset(wire.MsgExec)
	w.U32(id)
	w.U32(procID)
	w.U16(uint16(part))
	w.U16(uint16(len(args)))
	for _, a := range args {
		if a.S != nil {
			w.U8(wire.TagBytes)
			w.Blob(a.S)
		} else {
			w.U8(wire.TagLong)
			w.I64(a.I)
		}
	}
}

func (c *rawClient) send(id uint32, part int, call workload.Call) error {
	encodeExec(&c.wbuf, id, c.procs[call.Proc], part, call.Args)
	_, err := c.nc.Write(c.wbuf.Bytes())
	return err
}

func (c *rawClient) recv() error {
	typ, payload, err := c.readFrame()
	if err != nil {
		return err
	}
	if typ != wire.MsgOK {
		return fmt.Errorf("response frame %#x: %q", typ, payload)
	}
	return nil
}

// rawTrips measures the round trip through the raw client against node 0:
// one request in flight (median microseconds), then eight pipelined (median
// microseconds per request). The first tracedRequests trips record spans.
func rawTrips(o runOpts, def *serveDef, tgt *target, single, piped time.Duration) (rtt, pipe8 float64, sent int64, err error) {
	c, err := dialRaw(tgt.addrs[0], def.spec.ProcNames())
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.nc.Close()
	parts := tgt.servers[0].Shards()
	owned := []int{0, 1}
	if tgt.smap != nil {
		owned = tgt.smap.LocalParts(0)
	}
	wl := def.spec.New(parts)
	rng := workload.NewRand(o.seed ^ 0xabc)
	next := func() (int, workload.Call) {
		part := owned[int(sent)%len(owned)]
		sent++
		return part, wl.Gen(rng, part, parts)
	}

	var samples []float64
	for deadline := time.Now().Add(single); time.Now().Before(deadline); {
		part, call := next()
		var tr *tracer
		if sent <= tracedRequests {
			tr = o.tr
		}
		req := tr.begin("raw.request", rootSpan, sent)
		t0 := time.Now()
		w := tr.begin("wire.encode+write", req, sent)
		err = c.send(uint32(sent), part, call)
		tr.end(w)
		if err == nil {
			r := tr.begin("wire.read+decode", req, sent)
			err = c.recv()
			tr.end(r)
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(req)
		if err != nil {
			return 0, 0, sent, err
		}
	}
	rtt = median(samples)

	samples = samples[:0]
	for deadline := time.Now().Add(piped); time.Now().Before(deadline); {
		t0 := time.Now()
		for j := 0; j < 8; j++ {
			part, call := next()
			if err = c.send(uint32(j), part, call); err != nil {
				return 0, 0, sent, err
			}
		}
		for j := 0; j < 8; j++ {
			if err = c.recv(); err != nil {
				return 0, 0, sent, err
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3/8)
	}
	return rtt, median(samples), sent, nil
}

// clusterTrips measures cluster.Conn directly: single-partition Exec and
// two-branch ExecMulti, median microseconds each.
func clusterTrips(o runOpts, def *serveDef, tgt *target, each time.Duration) (exec, multi float64, sent, committed int64, err error) {
	c, err := cluster.Dial(cluster.Config{Addrs: tgt.addrs, Map: tgt.smap, Spec: def.spec})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer c.Close()
	parts := tgt.smap.Parts
	wl := def.spec.New(parts)
	rng := workload.NewRand(o.seed ^ 0xc1)
	var samples []float64
	for deadline := time.Now().Add(each); time.Now().Before(deadline); {
		part := int(sent) % parts
		call := wl.Gen(rng, part, parts)
		t0 := time.Now()
		err = c.Exec(part, call.Proc, call.Args)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		sent++
		if err != nil {
			return 0, 0, sent, committed, err
		}
	}
	exec = median(samples)
	samples = samples[:0]
	for deadline := time.Now().Add(each); time.Now().Before(deadline); {
		a := wl.Gen(rng, 0, parts)
		argsA := append([]catalog.Value(nil), a.Args...) // Gen reuses its buffer
		b := wl.Gen(rng, 1, parts)
		t0 := time.Now()
		err = c.ExecMulti([]cluster.Branch{{Part: 0, Proc: a.Proc, Args: argsA}, {Part: 1, Proc: b.Proc, Args: b.Args}})
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		sent += 2
		if err != nil {
			return 0, 0, sent, committed, err
		}
		committed++
	}
	return exec, median(samples), sent, committed, nil
}
