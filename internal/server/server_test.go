package server

import (
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/metrics"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// startServer builds and starts an oltpd on loopback and returns it.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// testClient is a wire.Client with *testing.T plumbing: each helper fails the
// test on a transport error, so protocol-level tests read as request/response
// scripts.
type testClient struct {
	t *testing.T
	*wire.Client
}

func dialClient(t *testing.T, s *Server) *testClient {
	t.Helper()
	wc, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &testClient{t: t, Client: wc}
}

// read returns the next response's type and, for an Err frame, its text.
func (c *testClient) read() (byte, string) {
	c.t.Helper()
	_, typ, r, err := c.Recv()
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	if typ != wire.MsgErr {
		return typ, ""
	}
	return typ, r.Str()
}

func (c *testClient) prepare(name string) uint32 {
	c.t.Helper()
	id, err := c.Prepare(name)
	if err != nil {
		c.t.Fatal(err)
	}
	return id
}

// exec sends an Exec with however many integer arguments the caller gives —
// including too few for the procedure, which no generator would emit.
func (c *testClient) exec(reqID, procID uint32, part int, args ...int64) {
	c.t.Helper()
	vals := make([]catalog.Value, len(args))
	for i, a := range args {
		vals[i] = catalog.LongVal(a)
	}
	if err := c.Exec(reqID, procID, part, vals); err != nil {
		c.t.Fatalf("write exec: %v", err)
	}
}

func microConfig(shards int) Config {
	return Config{
		System: systems.VoltDB,
		Shards: shards,
		Spec:   workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1},
	}
}

// TestServeExecRoundTrip drives the protocol by hand: prepare, a few execs
// on each shard, results matched by request ID, and PMU counters advanced.
func TestServeExecRoundTrip(t *testing.T) {
	s := startServer(t, microConfig(2))
	c := dialClient(t, s)
	defer c.Close()
	if c.Shards != 2 {
		t.Fatalf("hello shards = %d, want 2", c.Shards)
	}
	procID := c.prepare("micro_ro")

	const n = 40
	for i := uint32(0); i < n; i++ {
		part := int(i) % 2
		// Keys congruent to the partition stay single-sited.
		c.exec(i, procID, part, int64(2*int(i)+part))
	}
	seen := make(map[uint32]bool)
	for i := 0; i < n; i++ {
		id, typ, r, err := c.Recv()
		if err == nil {
			err = wire.Ack(typ, r)
		}
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if seen[id] {
			t.Fatalf("duplicate response for request %d", id)
		}
		seen[id] = true
	}

	var tx uint64
	s.Engine().Observe(func(m *core.Machine) {
		for cpu := range m.CPUs {
			tx += m.SnapshotCore(cpu).TxCount
		}
	})
	if tx != n {
		t.Fatalf("engine tx count = %d, want %d", tx, n)
	}

	// Per-connection session accounting: the shard workers tally every
	// executed request into the owning connection's Session.
	s.connMu.Lock()
	var sessOps, sessErrs uint64
	for sc := range s.conns {
		sessOps += sc.sess.Ops.Load()
		sessErrs += sc.sess.Errs.Load()
	}
	s.connMu.Unlock()
	if sessOps != n || sessErrs != 0 {
		t.Fatalf("session accounting = %d ops / %d errs, want %d / 0", sessOps, sessErrs, n)
	}
}

// TestServeErrors covers the protocol error paths: unknown procedure,
// unprepared ID, out-of-range partition, missing key.
func TestServeErrors(t *testing.T) {
	s := startServer(t, microConfig(2))
	c := dialClient(t, s)
	defer c.Close()

	if _, err := c.Prepare("no_such_proc"); err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("unknown procedure: err = %v", err)
	}

	procID := c.prepare("micro_ro")
	c.exec(2, procID+100, 0, 0)
	if typ, payload := c.read(); typ != wire.MsgErr || !strings.Contains(payload, "not prepared") {
		t.Fatalf("bad proc id: frame %#x %q", typ, payload)
	}
	c.exec(3, procID, 7, 0)
	if typ, payload := c.read(); typ != wire.MsgErr || !strings.Contains(payload, "out of range") {
		t.Fatalf("bad partition: frame %#x %q", typ, payload)
	}
	c.exec(4, procID, 0, 1_000_000_000) // absent key (even → partition 0)
	if typ, payload := c.read(); typ != wire.MsgErr || !strings.Contains(payload, "not found") {
		t.Fatalf("missing key: frame %#x %q", typ, payload)
	}

	// A mis-routed key (odd key tagged partition 0) trips the engine's
	// confinement panic; the server must answer with an error — and stay up —
	// rather than crash every connection.
	c.exec(5, procID, 0, 999_999_999)
	if typ, payload := c.read(); typ != wire.MsgErr || !strings.Contains(payload, "panicked") {
		t.Fatalf("mis-routed key: frame %#x %q", typ, payload)
	}
	// Wrong argument count: the procedure indexes past tx.Args (a runtime
	// error), which must also come back as an error response.
	c.exec(6, procID, 0) // micro_ro needs 1 arg, send none
	if typ, payload := c.read(); typ != wire.MsgErr || !strings.Contains(payload, "panicked") {
		t.Fatalf("bad arity: frame %#x %q", typ, payload)
	}
	c.exec(7, procID, 0, 42) // server still serves
	if typ, _ := c.read(); typ != wire.MsgOK {
		t.Fatalf("server did not survive the panics: frame %#x", typ)
	}
}

// TestExecArgsDoNotBleed forces the pooled-request reuse that made a
// short-argument Exec run against a previous request's key: every request the
// server can obtain, recycled or new, already holds a valid key in its
// argument backing array. A 0-arg micro_ro must still fault on its own
// (empty) arguments — an error response, never OK and never a "not found"
// lookup of someone else's key.
func TestExecArgsDoNotBleed(t *testing.T) {
	oldNew := requestPool.New
	requestPool.New = func() any {
		return &request{argBuf: []catalog.Value{catalog.LongVal(42)}}
	}
	t.Cleanup(func() { requestPool.New = oldNew })

	s := startServer(t, microConfig(2))
	c := dialClient(t, s)
	defer c.Close()
	procID := c.prepare("micro_ro")
	for i := uint32(0); i < 20; i += 2 {
		c.exec(i, procID, 0, 42) // leaves key 42 behind in the pooled request
		if typ, payload := c.read(); typ != wire.MsgOK {
			t.Fatalf("valid exec: frame %#x %q", typ, payload)
		}
		c.exec(i+1, procID, 0) // micro_ro needs 1 arg, send none
		if typ, payload := c.read(); typ != wire.MsgErr || !strings.Contains(payload, "panicked") {
			t.Fatalf("0-arg exec saw a stale argument: frame %#x %q", typ, payload)
		}
	}
}

// TestGracefulShutdown is the drain satellite: with requests in flight,
// Shutdown must (a) answer every admitted request, (b) answer refused
// requests with the draining error rather than dropping them, and
// (c) refuse new connections — the client observes no dropped responses.
func TestGracefulShutdown(t *testing.T) {
	s := startServer(t, microConfig(2))
	c := dialClient(t, s)
	defer c.Close()
	procID := c.prepare("micro_ro")

	// Pipeline a burst, then shut down concurrently while more requests are
	// being written. Every request written before the socket closes must
	// receive exactly one response (OK or draining).
	const burst = 200
	var sent atomic64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		key := []catalog.Value{{}}
		for i := uint32(0); i < burst; i++ {
			part := int(i) % 2
			key[0].I = int64(2*int(i) + part)
			if err := c.Exec(i, procID, part, key); err != nil {
				return // socket closed by drain: stop counting
			}
			sent.add(1)
		}
	}()
	// Let some requests land, then drain.
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()

	var ok, draining uint64
	for {
		_, typ, r, err := c.Recv()
		if err != nil {
			break // clean close after drain
		}
		switch typ {
		case wire.MsgOK:
			ok++
		case wire.MsgErr:
			if msg := r.Str(); msg != wire.ErrDraining {
				t.Fatalf("unexpected error response: %q", msg)
			}
			draining++
		default:
			t.Fatalf("unexpected frame %#x", typ)
		}
	}
	wg.Wait()
	<-done

	if got, want := ok+draining, sent.load(); got != want {
		t.Fatalf("responses = %d (%d ok + %d draining), want %d — dropped responses",
			got, ok, draining, want)
	}
	if ok == 0 {
		t.Fatal("no requests completed before the drain")
	}

	// New connections are refused after shutdown.
	if nc, err := net.Dial("tcp", s.Addr().String()); err == nil {
		nc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		var one [1]byte
		if _, rerr := nc.Read(one[:]); rerr == nil {
			t.Fatal("post-shutdown connection served a frame")
		}
		nc.Close()
	}

	// Shutdown is idempotent.
	s.Shutdown()
}

// TestMetricsEndpoint serves the registry over HTTP and asserts the
// per-shard PMU families are present and consistent after traffic.
func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t, microConfig(2))
	c := dialClient(t, s)
	defer c.Close()
	procID := c.prepare("micro_ro")
	const n = 30
	for i := uint32(0); i < n; i++ {
		part := int(i) % 2
		c.exec(i, procID, part, int64(2*int(i)+part))
	}
	for i := 0; i < n; i++ {
		if typ, _ := c.read(); typ != wire.MsgOK {
			t.Fatalf("exec %d failed", i)
		}
	}

	parsed, err := metrics.Parse(s.Registry().Render())
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	var tx float64
	for _, shard := range []string{"0", "1"} {
		v := parsed[`oltpd_tx_total{shard="`+shard+`"}`]
		if v <= 0 {
			t.Fatalf("shard %s tx_total = %g, want > 0", shard, v)
		}
		tx += v
		if parsed[`oltpd_instructions_total{shard="`+shard+`"}`] <= 0 {
			t.Fatalf("shard %s instructions_total missing", shard)
		}
		if parsed[`oltpd_ipc{shard="`+shard+`"}`] <= 0 {
			t.Fatalf("shard %s ipc missing", shard)
		}
		if parsed[`oltpd_cache_misses_total{shard="`+shard+`",level="l1d"}`] <= 0 {
			t.Fatalf("shard %s l1d misses missing", shard)
		}
		if parsed[`oltpd_request_seconds{shard="`+shard+`",quantile="0.99"}`] <= 0 {
			t.Fatalf("shard %s p99 missing", shard)
		}
	}
	if tx != n {
		t.Fatalf("summed tx_total = %g, want %d", tx, n)
	}
	if parsed["oltpd_connections"] != 1 {
		t.Fatalf("oltpd_connections = %g, want 1", parsed["oltpd_connections"])
	}
}

// TestMetricsCollectorGroups asserts the registry's family grouping: a
// serving-only scrape carries the serving-path counters but none of the PMU
// families (so it never pays the engine quiesce), an engine-only scrape is
// the reverse, and unknown groups are a clean HTTP 400.
func TestMetricsCollectorGroups(t *testing.T) {
	s := startServer(t, microConfig(2))

	groups := s.Registry().Groups()
	want := []string{"engine", "serving", "storage", "twopc", "txn"}
	if len(groups) != len(want) {
		t.Fatalf("Groups() = %v, want %v", groups, want)
	}
	for i := range want {
		if groups[i] != want[i] {
			t.Fatalf("Groups() = %v, want %v", groups, want)
		}
	}

	serving, err := s.Registry().RenderGroups([]string{"serving"})
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"oltpd_info", "oltpd_requests_total", "oltpd_batches_total", "oltpd_writes_total", "oltpd_connections", "oltpd_request_seconds"} {
		if !strings.Contains(serving, fam) {
			t.Fatalf("serving scrape lacks %s:\n%s", fam, serving)
		}
	}
	for _, fam := range []string{"oltpd_instructions_total", "oltpd_tx_total", "oltpd_data_bytes", "oltpd_2pc_prepares_total"} {
		if strings.Contains(serving, fam) {
			t.Fatalf("serving scrape leaked %s", fam)
		}
	}

	engineOnly, err := s.Registry().RenderGroups([]string{"engine"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(engineOnly, "oltpd_instructions_total") || !strings.Contains(engineOnly, "oltpd_stall_cycles_total") {
		t.Fatalf("engine scrape lacks PMU families:\n%s", engineOnly)
	}
	if strings.Contains(engineOnly, "oltpd_requests_total") {
		t.Fatal("engine scrape leaked serving family")
	}

	// The HTTP surface: ?collect= selection and the 400 on unknown groups.
	rec := httptest.NewRecorder()
	s.Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?collect=serving", nil))
	if rec.Code != 200 || strings.Contains(rec.Body.String(), "oltpd_instructions_total") {
		t.Fatalf("?collect=serving: status %d, engine leak %v", rec.Code,
			strings.Contains(rec.Body.String(), "oltpd_instructions_total"))
	}
	rec = httptest.NewRecorder()
	s.Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?collect=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("?collect=bogus: status %d, want 400", rec.Code)
	}

}

// TestScrapeIsOneInstant: every PMU family of one scrape describes the same
// instant. Four shards execute under pipelined load while eight scrapers
// render concurrently; in every scrape each shard's cycles must equal its
// instructions × BaseCPI plus its stall components, and its IPC must be
// instructions / cycles. Both identities hold only when instructions,
// stalls, cycles and IPC come from one observation, so a scrape whose PMU
// families read two different engine instants fails them.
func TestScrapeIsOneInstant(t *testing.T) {
	const shards, scrapers, scrapesEach, depth = 4, 8, 6, 8
	s := startServer(t, microConfig(shards))
	cpi := s.eng.BaseCPI()

	stop := make(chan struct{})
	var load sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		wc, err := wire.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		procID, err := wc.Prepare("micro_ro")
		if err != nil {
			t.Fatal(err)
		}
		load.Add(1)
		go func() {
			defer load.Done()
			for key := int64(shard); ; {
				select {
				case <-stop:
					return
				default:
				}
				for i := uint32(0); i < depth; i++ {
					wc.QueueExec(i, procID, shard, []catalog.Value{catalog.LongVal(key)})
					key = (key + shards) % 4096
				}
				if err := wc.Flush(); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < depth; i++ {
					if _, typ, _, err := wc.Recv(); err != nil || typ != wire.MsgOK {
						t.Errorf("shard %d: frame %#x, err %v", shard, typ, err)
						return
					}
				}
			}
		}()
	}

	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	var scrape sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		scrape.Add(1)
		go func() {
			defer scrape.Done()
			for n := 0; n < scrapesEach; n++ {
				text := s.Registry().Render()
				if n%2 == 1 {
					var err error
					if text, err = s.Registry().RenderGroups([]string{"engine"}); err != nil {
						t.Error(err)
						return
					}
				}
				p, err := metrics.Parse(text)
				if err != nil {
					t.Error(err)
					return
				}
				for shard := 0; shard < shards; shard++ {
					l := fmt.Sprintf(`shard="%d"`, shard)
					instr, cycles, ipc := p["oltpd_instructions_total{"+l+"}"], p["oltpd_cycles_total{"+l+"}"], p["oltpd_ipc{"+l+"}"]
					stalls := p.Sum("oltpd_stall_cycles_total", l)
					if !same(cycles, instr*cpi+stalls) {
						t.Errorf("scrape %d.%d shard %d: cycles %g != instructions %g × %g + stalls %g", g, n, shard, cycles, instr, cpi, stalls)
					}
					if cycles > 0 && !same(ipc, instr/cycles) {
						t.Errorf("scrape %d.%d shard %d: ipc %g != instructions %g / cycles %g", g, n, shard, ipc, instr, cycles)
					}
				}
			}
		}()
	}
	scrape.Wait()
	close(stop)
	load.Wait()
}

// atomic64 is a tiny helper (avoids importing sync/atomic twice with
// different shapes in this test file).
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(d uint64) {
	a.mu.Lock()
	a.v += d
	a.mu.Unlock()
}

func (a *atomic64) load() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// TestConcurrentServing4Shards is the end-to-end concurrent serving test: a
// 4-shard single-engine oltpd with one client per shard firing pipelined
// requests, so every shard worker group-executes simultaneously on the one
// simulated machine. Asserts the engine is in concurrent mode
// (oltpd_concurrent gauge), every shard executed real batches, and the
// PMU-derived per-shard counters account for every admitted request.
func TestConcurrentServing4Shards(t *testing.T) {
	s := startServer(t, microConfig(4))
	if !s.Engine().Concurrent() {
		t.Fatal("4-shard VoltDB server did not enter concurrent mode")
	}

	const perClient = 50
	var wg sync.WaitGroup
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			c := dialClient(t, s)
			defer c.Close()
			procID := c.prepare("micro_ro")
			for i := uint32(0); i < perClient; i++ {
				c.exec(i, procID, shard, int64(4*int(i)+shard))
			}
			for i := 0; i < perClient; i++ {
				if typ, _ := c.read(); typ != wire.MsgOK {
					t.Errorf("shard %d exec %d failed", shard, i)
					return
				}
			}
		}(shard)
	}
	wg.Wait()

	parsed, err := metrics.Parse(s.Registry().Render())
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	if v := parsed["oltpd_concurrent"]; v != 1 {
		t.Errorf("oltpd_concurrent = %g, want 1", v)
	}
	var tx float64
	for _, shard := range []string{"0", "1", "2", "3"} {
		batches := parsed[`oltpd_batches_total{shard="`+shard+`"}`]
		if batches <= 0 {
			t.Errorf("shard %s executed no batches", shard)
		}
		// One client per shard: at most one write per batch. (A worker counts
		// a write once it returns, so the last may not be counted yet.)
		if w := parsed[`oltpd_writes_total{shard="`+shard+`"}`]; w > batches {
			t.Errorf("shard %s answered %g batches in %g writes", shard, batches, w)
		}
		if v := parsed[`oltpd_requests_total{shard="`+shard+`"}`]; v != perClient {
			t.Errorf("shard %s requests_total = %g, want %d", shard, v, perClient)
		}
		if v := parsed[`oltpd_request_errors_total{shard="`+shard+`"}`]; v != 0 {
			t.Errorf("shard %s request_errors_total = %g", shard, v)
		}
		tx += parsed[`oltpd_tx_total{shard="`+shard+`"}`]
	}
	if want := float64(4 * perClient); tx != want {
		t.Errorf("sum of oltpd_tx_total = %g, want %g (no transaction lost or duplicated)", tx, want)
	}
}

// TestSerializedArchetypeServes is the serialized session path end to end:
// the path is selected by what the engine is, not by a knob. Shore-MT asked
// for 2 shards collapses to one partition (shared-everything) and never
// enters concurrent mode: oltpd_concurrent = 0, one shard worker, and
// requests are served correctly.
func TestSerializedArchetypeServes(t *testing.T) {
	cfg := microConfig(2)
	cfg.System = systems.ShoreMT
	s := startServer(t, cfg)
	if s.Engine().Concurrent() {
		t.Fatal("Shore-MT entered concurrent mode")
	}
	if s.Shards() != 1 {
		t.Fatalf("Shore-MT serves %d shards, want 1", s.Shards())
	}
	c := dialClient(t, s)
	defer c.Close()
	procID := c.prepare("micro_ro")
	for i := uint32(0); i < 10; i++ {
		c.exec(i, procID, 0, int64(i))
	}
	for i := 0; i < 10; i++ {
		if typ, payload := c.read(); typ != wire.MsgOK {
			t.Fatalf("exec %d failed: %q", i, payload)
		}
	}
	parsed, err := metrics.Parse(s.Registry().Render())
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	if v := parsed["oltpd_concurrent"]; v != 0 {
		t.Errorf("oltpd_concurrent = %g, want 0", v)
	}
	if v := parsed[`oltpd_requests_total{shard="0"}`]; v != 10 {
		t.Errorf("shard 0 requests_total = %g, want 10", v)
	}
	if v := parsed[`oltpd_tx_total{shard="0"}`]; v != 10 {
		t.Errorf("shard 0 tx_total = %g, want 10", v)
	}
}
