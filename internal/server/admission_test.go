package server

import (
	"strings"
	"testing"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/metrics"
	"oltpsim/internal/wire"
)

// TestAdmissionQueueShed fills shard 0's queue deterministically — a 2PC
// prepare parks the shard worker between vote and decision, so nothing
// drains — then asserts that requests beyond AdmitQueueMax are shed with
// wire.ErrOverload (connection stays up, shed counted in oltpd_shed_total,
// NOT in the drain-reject counter) while every queued request still completes
// once the worker resumes.
func TestAdmissionQueueShed(t *testing.T) {
	const queueMax = 4
	cfg := microConfig(2)
	cfg.AdmitQueueMax = queueMax
	s := startServer(t, cfg)

	coord := dialClient(t, s)
	defer coord.Close()
	procID := coord.prepare("micro_ro")

	// Park shard worker 0: prepare a branch, await its YES vote. The worker
	// now blocks for the decision and shard 0's queue cannot drain.
	const gtid = 77
	if err := coord.Prepare2PC(1, gtid, procID, 0, []catalog.Value{catalog.LongVal(0)}); err != nil {
		t.Fatal(err)
	}
	if _, typ, r, err := coord.Recv(); err != nil || typ != wire.MsgVote || r.U8() != 1 {
		t.Fatalf("2PC prepare: frame %#x (err %v), want a YES vote", typ, err)
	}

	// Pipeline queueMax + extra execs at the parked shard from a second
	// connection: the first queueMax fill the queue, the rest must be shed
	// immediately by the reader with the overload error.
	const extra = 5
	cl := dialClient(t, s)
	defer cl.Close()
	clProc := cl.prepare("micro_ro")
	for i := uint32(0); i < queueMax+extra; i++ {
		cl.exec(i, clProc, 0, int64(2*i))
	}
	for i := 0; i < extra; i++ {
		if typ, msg := cl.read(); typ != wire.MsgErr || msg != wire.ErrOverload {
			t.Fatalf("shed response %d: frame %#x (%q), want Err %q", i, typ, msg, wire.ErrOverload)
		}
	}

	// Release the worker; the queued requests all complete.
	if err := coord.Commit2PC(2, gtid, 0); err != nil {
		t.Fatal(err)
	}
	if typ, payload := coord.read(); typ != wire.MsgOK {
		t.Fatalf("commit ack: frame %#x (%q)", typ, payload)
	}
	for i := 0; i < queueMax; i++ {
		if typ, payload := cl.read(); typ != wire.MsgOK {
			t.Fatalf("queued exec %d: frame %#x (%q), want OK after release", i, typ, payload)
		}
	}

	parsed, err := metrics.Parse(s.Registry().Render())
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	if v := parsed[`oltpd_shed_total{shard="0"}`]; v != extra {
		t.Errorf(`oltpd_shed_total{shard="0"} = %g, want %d`, v, extra)
	}
	if v := parsed[`oltpd_shed_total{shard="1"}`]; v != 0 {
		t.Errorf(`oltpd_shed_total{shard="1"} = %g, want 0`, v)
	}
	// Shed is overload, not drain: the drain counter stays zero and the
	// connection kept serving (the OKs above already proved that).
	if v := parsed["oltpd_rejected_total"]; v != 0 {
		t.Errorf("oltpd_rejected_total = %g, want 0 (shed must not count as drain)", v)
	}
}

// TestAdmissionLatencyShed exercises the latency bound at the admit level:
// with the EWMA over the bound, a request finds admission only while the
// shard queue is empty — the nonempty-queue guard is what keeps a stale EWMA
// from wedging an idle shard into shedding forever.
func TestAdmissionLatencyShed(t *testing.T) {
	cfg := microConfig(2)
	cfg.AdmitLatencyMax = time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	// Not started: no shard workers, so admitted requests stay queued and the
	// queue-length precondition is under test control.
	s.shard[0].svcEWMA.Store(int64(5 * time.Millisecond)) // well over the bound

	// Empty queue: the latency trigger must NOT fire even though the EWMA is
	// over the bound (a completion-starved reading proves nothing).
	if v := s.admit(&request{part: 0}); v != admitOK {
		t.Fatalf("admit on empty queue with high EWMA = %v, want admitOK", v)
	}
	// Nonempty queue + high EWMA: shed.
	if v := s.admit(&request{part: 0}); v != admitShed {
		t.Fatalf("admit on nonempty queue with high EWMA = %v, want admitShed", v)
	}
	if got := s.shard[0].shed.Load(); got != 1 {
		t.Fatalf("shard[0].shed = %d, want 1", got)
	}
	// EWMA back under the bound: admitted again.
	s.shard[0].svcEWMA.Store(int64(100 * time.Microsecond))
	if v := s.admit(&request{part: 0}); v != admitOK {
		t.Fatalf("admit with low EWMA = %v, want admitOK", v)
	}
	// Other shards are independent.
	if v := s.admit(&request{part: 1}); v != admitOK {
		t.Fatalf("admit on shard 1 = %v, want admitOK", v)
	}
	s.reqWG.Add(-3) // balance the admitted requests we will never serve

	// noteLatency converges the EWMA toward the observed latency.
	s.shard[1].svcEWMA.Store(0)
	for i := 0; i < 64; i++ {
		s.noteLatency(1, 8*time.Millisecond)
	}
	got := time.Duration(s.shard[1].svcEWMA.Load())
	if got < 7*time.Millisecond || got > 8*time.Millisecond {
		t.Fatalf("EWMA after 64 identical observations = %v, want ≈8ms", got)
	}
}

// TestAdmissionOffKeepsBackpressure: with neither bound configured the server
// must never emit ErrOverload — full queues mean blocking backpressure, as
// before.
func TestAdmissionOffKeepsBackpressure(t *testing.T) {
	cfg := microConfig(2)
	if cfg.AdmissionEnabled() {
		t.Fatal("default config claims admission enabled")
	}
	s := startServer(t, cfg)
	c := dialClient(t, s)
	defer c.Close()
	procID := c.prepare("micro_ro")
	const n = 64
	for i := uint32(0); i < n; i++ {
		c.exec(i, procID, 0, int64(2*i))
	}
	for i := 0; i < n; i++ {
		typ, payload := c.read()
		if typ != wire.MsgOK {
			if typ == wire.MsgErr && strings.Contains(payload, "overload") {
				t.Fatalf("admission-off server shed request %d", i)
			}
			t.Fatalf("exec %d: frame %#x (%q)", i, typ, payload)
		}
	}
}
