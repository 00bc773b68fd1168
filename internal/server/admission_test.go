package server

import (
	"strconv"
	"strings"
	"testing"

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

// TestAdmissionQueueBoundWithinCapacity: a bound above the shard queue's
// capacity would never be reached — the reader would block on the full
// queue instead of shedding — so New refuses it, naming both numbers.
func TestAdmissionQueueBoundWithinCapacity(t *testing.T) {
	cfg := microConfig(2)
	cfg.AdmitQueueMax = queueDepth + 1
	_, err := New(cfg)
	if err == nil {
		t.Fatalf("New accepted AdmitQueueMax %d over the queue capacity %d", cfg.AdmitQueueMax, queueDepth)
	}
	for _, n := range []int{queueDepth + 1, queueDepth} {
		if !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("refusal %q does not name %d", err, n)
		}
	}
}

// TestAdmissionOffKeepsBackpressure: without a queue bound the server must
// never emit ErrOverload — full queues mean blocking backpressure, as before.
func TestAdmissionOffKeepsBackpressure(t *testing.T) {
	s := startServer(t, microConfig(2))
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
