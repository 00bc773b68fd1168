package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/wire"
)

// countingConn counts the Writes the server issues on one connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeClient serves one connection of s over net.Pipe, the server end
// wrapped in a countingConn, and returns the raw client end, a wire.Client on
// it, and the counter.
func pipeClient(t *testing.T, s *Server) (net.Conn, *testClient, *countingConn) {
	t.Helper()
	cli, srv := net.Pipe()
	cc := &countingConn{Conn: srv}
	s.serveConn(cc)
	wc, err := wire.NewClient(cli)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { wc.Close() })
	return cli, &testClient{t: t, Client: wc}, cc
}

// queueExec appends one single-argument Exec frame.
func queueExec(w *wire.Buffer, id, procID uint32, part int, key int64) {
	w.Begin(wire.MsgExec)
	w.U32(id)
	w.U32(procID)
	w.U16(uint16(part))
	w.U16(1)
	w.U8(wire.TagLong)
	w.I64(key)
}

// TestBatchAnswersOneWritePerRun is the server half of the one-write rule:
// 16 Execs pipelined to one shard are answered in at most one socket write
// per executed batch, every request ID exactly once, and every write is
// counted in the shard's oltpd_writes_total.
func TestBatchAnswersOneWritePerRun(t *testing.T) {
	s := startServer(t, microConfig(2))
	_, c, cc := pipeClient(t, s)
	procID := c.prepare("micro_ro")
	writes0 := cc.writes.Load()

	const n = 16
	key := []catalog.Value{{}}
	for i := uint32(0); i < n; i++ {
		key[0].I = int64(2 * i) // even keys live on partition 0
		c.QueueExec(i, procID, 0, key)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
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
		if id >= n || seen[id] {
			t.Fatalf("response for request %d: foreign or duplicate (seen %v)", id, seen)
		}
		seen[id] = true
	}
	s.Shutdown() // the workers have exited: their counters are final

	writes, batches := cc.writes.Load()-writes0, s.shard[0].batches.Load()
	if writes > int64(batches) {
		t.Fatalf("%d requests answered in %d writes over %d batches, want at most one write per batch", n, writes, batches)
	}
	if got := s.shard[0].writes.Load(); got != uint64(writes) {
		t.Fatalf("oltpd_writes_total{shard=0} = %d, the connection saw %d writes", got, writes)
	}
	t.Logf("%d requests: %d batches, %d writes", n, batches, writes)
}

// TestPrepare2PCMidBatchFlushesExecsAhead: a 2PC prepare parks its shard
// worker until the decision arrives, so the answers of the Execs queued ahead
// of it must be written before it parks — the client sees them and the vote
// without sending anything more. The Execs behind it wait for the decision.
func TestPrepare2PCMidBatchFlushesExecsAhead(t *testing.T) {
	s := startServer(t, microConfig(2))
	cli, c, _ := pipeClient(t, s)
	procID := c.prepare("micro_ro")

	const ahead, behind, gtid = 4, 4, 77
	var w wire.Buffer
	for id := uint32(0); id < ahead; id++ {
		queueExec(&w, id, procID, 0, int64(2*id))
	}
	w.Begin(wire.MsgPrepare2PC)
	w.U32(ahead)
	w.U64(gtid)
	w.U32(procID)
	w.U16(0)
	w.U16(1)
	w.U8(wire.TagLong)
	w.I64(2 * ahead)
	for id := uint32(ahead + 1); id <= ahead+behind; id++ {
		queueExec(&w, id, procID, 0, int64(2*id))
	}
	if _, err := cli.Write(w.Bytes()); err != nil { // one write: the prepare mid-batch
		t.Fatal(err)
	}

	// Well inside the 10 s decision timeout: a worker that parked on the
	// vote with the Execs' answers still pending would hold them until then.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	answered := make(map[uint32]byte)
	for len(answered) < ahead+1 {
		id, typ, _, err := c.Recv()
		if err != nil {
			t.Fatalf("awaiting the Execs ahead of the prepare and its vote (have %v): %v", answered, err)
		}
		if id > ahead || answered[id] != 0 {
			t.Fatalf("response for request %d before the decision (have %v)", id, answered)
		}
		answered[id] = typ
	}
	if answered[ahead] != wire.MsgVote {
		t.Fatalf("prepare answered with frame %#x, want a vote", answered[ahead])
	}
	if err := c.Commit2PC(ahead+behind+1, gtid, 0); err != nil {
		t.Fatal(err)
	}
	for len(answered) < ahead+behind+2 {
		id, typ, r, err := c.Recv()
		if err == nil {
			err = wire.Ack(typ, r)
		}
		if err != nil {
			t.Fatalf("after the decision (have %v): %v", answered, err)
		}
		if id > ahead+behind+1 || answered[id] != 0 {
			t.Fatalf("foreign or duplicate response for request %d", id)
		}
		answered[id] = typ
	}
}

// TestGracefulShutdownPipelined drains with two connections keeping 16
// requests in flight each: every request the server admitted reaches its
// client as an OK before the socket closes — the batched answers are written
// before a drain counts them done — refusals are draining errors, and no
// request is answered twice.
func TestGracefulShutdownPipelined(t *testing.T) {
	s := startServer(t, microConfig(2))
	const conns, window = 2, 16

	var ok, draining atomic.Uint64
	warm := make(chan struct{}, conns) // one signal per connection once it is pipelining
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		c := dialClient(t, s)
		defer c.Close()
		procID := c.prepare("micro_ro")
		credits := make(chan struct{}, window)
		for i := 0; i < window; i++ {
			credits <- struct{}{}
		}
		stop := make(chan struct{})
		wg.Add(2)
		go func() { // sender: queue while slots are free, flush before waiting
			defer wg.Done()
			key := []catalog.Value{{}}
			for id := uint32(0); ; id++ {
				select {
				case <-credits:
				default:
					if c.Flush() != nil {
						return
					}
					select {
					case <-credits:
					case <-stop:
						return
					}
				}
				part := int(id) % 2
				key[0].I = int64(2*int(id) + part)
				c.QueueExec(id, procID, part, key)
			}
		}()
		go func() { // receiver: every ID at most once, until the drain closes the socket
			defer wg.Done()
			defer close(stop)
			seen := make(map[uint32]bool)
			for n := 0; ; n++ {
				id, typ, r, err := c.Recv()
				if err != nil {
					return
				}
				if seen[id] {
					t.Errorf("request %d answered twice", id)
				}
				seen[id] = true
				switch typ {
				case wire.MsgOK:
					ok.Add(1)
				case wire.MsgErr:
					if msg := r.Str(); msg != wire.ErrDraining {
						t.Errorf("unexpected error response: %q", msg)
					}
					draining.Add(1)
				default:
					t.Errorf("unexpected frame %#x", typ)
				}
				if n == 4*window {
					warm <- struct{}{}
				}
				credits <- struct{}{}
			}
		}()
	}
	for i := 0; i < conns; i++ {
		<-warm
	}
	s.Shutdown()
	wg.Wait()

	var admitted, refused uint64
	for p := range s.shard {
		admitted += s.shard[p].requests.Load()
	}
	refused = s.rejectTotal.Load()
	if ok.Load() != admitted {
		t.Fatalf("clients saw %d OKs for %d admitted requests — answers lost in the drain", ok.Load(), admitted)
	}
	if draining.Load() > refused {
		t.Fatalf("clients saw %d draining answers for %d refusals", draining.Load(), refused)
	}
	t.Logf("%d admitted and answered, %d refused (%d draining answers seen)", admitted, refused, draining.Load())
}
