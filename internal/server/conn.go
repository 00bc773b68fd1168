package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/engine"
	"oltpsim/internal/wire"
)

// writeTimeout bounds every flush — one Write of all the frames pending on a
// connection. A client that pipelines requests but never drains responses
// eventually fills its TCP window; an unbounded Write there would
// head-of-line-block the whole shard worker and make Shutdown's drain wait
// forever. On timeout the connection is closed — the client forfeited its
// responses, everyone else's keep flowing.
const writeTimeout = 15 * time.Second

// conn is one client connection: a reader goroutine that decodes frames and
// admits requests, plus a mutex-guarded writer shared with the shard workers
// that deliver responses; every frame is queued into wbuf and leaves through
// flush. Each connection gets its own engine Session: the shard workers tally executed requests into it, so
// per-connection throughput/error accounting survives request batching.
type conn struct {
	s    *Server
	nc   net.Conn
	br   *bufio.Reader
	sess *engine.Session

	writeMu sync.Mutex
	wbuf    wire.Buffer //oltpsim:guarded-by writeMu
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{s: s, nc: nc, br: bufio.NewReaderSize(nc, 64<<10), sess: s.eng.NewSession()}
}

// serve runs the connection to completion: Hello, then a decode loop until
// EOF, protocol error, or server close.
func (c *conn) serve() {
	defer c.s.dropConn(c)
	defer c.nc.Close()

	// Hello announces the topology and workload so the driver can verify it
	// generates matching traffic before sending anything.
	c.writeMu.Lock()
	c.wbuf.Begin(wire.MsgHello)
	c.wbuf.U8(wire.Version)
	c.wbuf.U16(uint16(c.s.Shards()))
	c.wbuf.Str(c.s.Spec())
	_, err := c.flush()
	c.writeMu.Unlock()
	if err != nil {
		return
	}

	var frame []byte
	for {
		var typ byte
		var payload []byte
		typ, payload, frame, err = wire.ReadFrame(c.br, frame)
		if err != nil {
			return // EOF, drain close, or garbage framing: drop the conn
		}
		switch typ {
		case wire.MsgPrepare:
			if !c.handlePrepare(payload) {
				return
			}
		case wire.MsgExec:
			if !c.handleExec(payload) {
				return
			}
		case wire.MsgPrepare2PC:
			if !c.handlePrepare2PC(payload) {
				return
			}
		case wire.MsgCommit2PC, wire.MsgAbort2PC:
			if !c.handleDecision(typ, payload) {
				return
			}
		default:
			c.sendErr(0, fmt.Sprintf("oltpd: unexpected frame type %#x", typ))
			return
		}
	}
}

// handlePrepare resolves a procedure name to its ID.
func (c *conn) handlePrepare(payload []byte) bool {
	r := wire.NewReader(payload)
	reqID := r.U32()
	name := r.Str()
	if r.Err != nil {
		return false
	}
	id, ok := c.s.procIDs[name]
	if !ok {
		c.sendErr(reqID, fmt.Sprintf("oltpd: unknown procedure %q", name))
		return true
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.wbuf.Begin(wire.MsgPrepared)
	c.wbuf.U32(reqID)
	c.wbuf.U32(id)
	_, err := c.flush()
	return err == nil
}

// handleExec decodes one Exec into a pooled request and admits it to its
// shard queue.
func (c *conn) handleExec(payload []byte) bool {
	r := wire.NewReader(payload)
	reqID := r.U32()
	procID := r.U32()
	part := int(r.U16())
	return c.admitCall(&r, reqID, procID, part, 0, false)
}

// handlePrepare2PC decodes one 2PC branch prepare — an Exec carrying a
// global transaction ID — and admits it to the owning shard queue; the shard
// worker answers with a Vote frame.
func (c *conn) handlePrepare2PC(payload []byte) bool {
	r := wire.NewReader(payload)
	reqID := r.U32()
	gtid := r.U64()
	procID := r.U32()
	part := int(r.U16())
	return c.admitCall(&r, reqID, procID, part, gtid, true)
}

// admitCall validates and admits a decoded Exec/Prepare2PC. Decoded argument
// bytes are copied into the request's own backing storage — the frame buffer
// is reused for the next read while the request is still queued.
func (c *conn) admitCall(r *wire.Reader, reqID, procID uint32, part int, gtid uint64, is2pc bool) bool {
	argc := int(r.U16())
	if r.Err != nil {
		return false
	}
	if int(procID) >= len(c.s.procNames) {
		c.sendErr(reqID, fmt.Sprintf("oltpd: procedure id %d not prepared", procID))
		return true
	}
	if part < 0 || part >= c.s.Shards() {
		c.sendErr(reqID, fmt.Sprintf("oltpd: partition %d out of range", part))
		return true
	}
	if !c.s.ownsShard(part) {
		c.sendErr(reqID, fmt.Sprintf("oltpd: partition %d not served by this node (shard map mismatch?)", part))
		return true
	}

	req := getRequest()
	req.c = c
	req.id = reqID
	req.part = part
	req.proc = c.s.procNames[procID]
	req.arrived = time.Now()
	req.is2pc = is2pc
	req.gtid = gtid
	if cap(req.argBuf) < argc {
		req.argBuf = make([]catalog.Value, argc)
	}
	// Cap-limited: a procedure slicing past len must fault, not read the
	// argument a previous request left in the pooled backing array.
	req.args = req.argBuf[:argc:argc]
	req.argMem = req.argMem[:0]

	// Two passes: first copy every byte-string into the request's backing
	// array (appends may reallocate it), then materialize the Values so the
	// slices alias stable memory.
	type span struct{ off, len, idx int }
	var spans [16]span
	nspans := 0
	for i := 0; i < argc; i++ {
		switch tag := r.U8(); tag {
		case wire.TagLong:
			req.args[i] = catalog.LongVal(r.I64())
		case wire.TagBytes:
			b := r.Blob()
			if nspans < len(spans) {
				spans[nspans] = span{off: len(req.argMem), len: len(b), idx: i}
				nspans++
				req.argMem = append(req.argMem, b...)
			} else {
				req.args[i] = catalog.StringVal(append([]byte(nil), b...))
			}
		default:
			putRequest(req)
			c.sendErr(reqID, fmt.Sprintf("oltpd: bad argument tag %#x", tag))
			return true
		}
	}
	if r.Err != nil {
		putRequest(req)
		return false
	}
	for _, sp := range spans[:nspans] {
		req.args[sp.idx] = catalog.StringVal(req.argMem[sp.off : sp.off+sp.len])
	}

	switch c.s.admit(req) {
	case admitDraining:
		putRequest(req)
		c.s.rejectTotal.Add(1)
		return c.sendErr(reqID, ErrDraining)
	case admitShed:
		// Shed, not drained: the connection stays up and the client keeps its
		// offered schedule; shedTotal (not rejectTotal) already counted it.
		putRequest(req)
		return c.sendErr(reqID, wire.ErrOverload)
	}
	return true
}

// handleDecision resolves a coordinator's COMMIT2PC/ABORT2PC. Decision
// frames bypass admission entirely (the prepared branch already holds its
// admitted slot, and decisions must land even during drain): the reader
// claims the partition's pending slot and hands the verdict to the parked
// shard worker, which resolves and acks. Per presumed abort, an ABORT2PC
// for a gtid this node no longer (or never) holds prepared acks OK; a
// COMMIT2PC for one is answered with an Err — the participant may have
// timed out and aborted, and the coordinator must hear that.
func (c *conn) handleDecision(typ byte, payload []byte) bool {
	r := wire.NewReader(payload)
	reqID := r.U32()
	gtid := r.U64()
	part := int(r.U16())
	if r.Err != nil {
		return false
	}
	commit := typ == wire.MsgCommit2PC
	if part < 0 || part >= c.s.Shards() || !c.s.ownsShard(part) {
		return c.sendErr(reqID, fmt.Sprintf("oltpd: partition %d not served by this node", part))
	}
	slot := &c.s.pend[part]
	slot.mu.Lock()
	if slot.active && slot.gtid == gtid {
		ch := slot.ch
		slot.active = false
		slot.mu.Unlock()
		ch <- decision{commit: commit, c: c, reqID: reqID}
		return true // the worker acks after resolving
	}
	slot.mu.Unlock()
	if commit {
		return c.sendErr(reqID, fmt.Sprintf("oltpd: commit for unknown 2PC transaction %d on partition %d", gtid, part))
	}
	return c.respondID(reqID, nil)
}

// respondID writes an OK/Err frame for reqID at once; returns false if the
// connection is gone.
func (c *conn) respondID(reqID uint32, err error) bool {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.queueResult(reqID, err)
	_, werr := c.flush()
	return werr == nil
}

// sendVote writes a 2PC Vote frame at once; called from shard workers.
func (c *conn) sendVote(reqID uint32, commit bool, reason string) bool {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.wbuf.Begin(wire.MsgVote)
	c.wbuf.U32(reqID)
	if commit {
		c.wbuf.U8(1)
	} else {
		c.wbuf.U8(0)
		c.wbuf.Str(reason)
	}
	_, err := c.flush()
	return err == nil
}

// sendErr writes an Err frame at once; returns false if the connection is
// gone.
func (c *conn) sendErr(reqID uint32, msg string) bool {
	return c.respondID(reqID, wire.ServerError(msg))
}

// queueResult queues reqID's OK frame, or its Err frame when err is set.
//
//oltpsim:holds writeMu
func (c *conn) queueResult(reqID uint32, err error) {
	if err == nil {
		c.wbuf.Begin(wire.MsgOK)
		c.wbuf.U32(reqID)
		return
	}
	c.wbuf.Begin(wire.MsgErr)
	c.wbuf.U32(reqID)
	c.wbuf.Str(err.Error())
}

// flush is the connection's one frame writer: every pending frame leaves in
// one Write under writeTimeout; it reports whether it issued one. A timeout
// or error closes the connection so a non-draining client can never wedge a
// shard worker (its reader then exits on the closed socket).
//
//oltpsim:holds writeMu
func (c *conn) flush() (wrote bool, err error) {
	b := c.wbuf.Bytes()
	if len(b) == 0 {
		return false, nil
	}
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err = c.nc.Write(b)
	c.wbuf.Clear()
	if err != nil {
		c.nc.Close()
	}
	return true, err
}
