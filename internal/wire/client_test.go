package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/catalog"
)

// frame encodes one frame of the given type from the fields build appends.
func frame(typ byte, build func(w *Buffer)) []byte {
	var w Buffer
	w.Reset(typ)
	if build != nil {
		build(&w)
	}
	return append([]byte(nil), w.Bytes()...)
}

func goodHello() []byte {
	return frame(MsgHello, func(w *Buffer) { w.U8(Version); w.U16(4); w.Str("micro:rows=4096") })
}

// scriptedServer plays the server end of a net.Pipe: it sends hello, then —
// when reply is set — swallows one client frame and answers with reply, and
// hangs up. Raw bytes on both sides, so a script can be as malformed as it
// likes.
func scriptedServer(t *testing.T, hello, reply []byte) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	go func() {
		defer srv.Close()
		srv.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := srv.Write(hello); err != nil || reply == nil {
			return
		}
		if _, _, _, err := ReadFrame(srv, nil); err != nil {
			return
		}
		srv.Write(reply)
	}()
	return cli
}

// TestClientHostileServers: whatever a server sends during the handshake or
// in answer to a Prepare, the client returns an error — never a panic, never
// a half-initialized Client.
func TestClientHostileServers(t *testing.T) {
	prepared := frame(MsgPrepared, func(w *Buffer) { w.U32(0); w.U32(7) })
	cases := []struct {
		name         string
		hello, reply []byte
		want         string // substring of the error
	}{
		{name: "wrong first frame type", hello: frame(MsgOK, func(w *Buffer) { w.U32(1) }), want: "expected hello"},
		{name: "version mismatch", hello: frame(MsgHello, func(w *Buffer) { w.U8(Version + 1); w.U16(4); w.Str("x") }), want: "bad hello"},
		{name: "truncated hello", hello: frame(MsgHello, func(w *Buffer) { w.U8(Version); w.U8(4) }), want: "bad hello"},
		{name: "hello spec length overruns the frame", hello: frame(MsgHello, func(w *Buffer) { w.U8(Version); w.U16(4); w.U16(99) }), want: "bad hello"},
		{name: "EOF inside the hello frame", hello: goodHello()[:7], want: "reading hello"},
		{name: "oversized hello length", hello: []byte{0xff, 0xff, 0xff, 0x7f, MsgHello}, want: "reading hello"},
		{name: "Err to a Prepare", hello: goodHello(), reply: frame(MsgErr, func(w *Buffer) { w.U32(0); w.Str("oltpd: unknown procedure") }), want: "unknown procedure"},
		{name: "truncated Err to a Prepare", hello: goodHello(), reply: frame(MsgErr, func(w *Buffer) { w.U32(0); w.U16(40) }), want: "truncated"},
		{name: "unexpected frame to a Prepare", hello: goodHello(), reply: frame(MsgVote, func(w *Buffer) { w.U32(0); w.U8(1) }), want: "unexpected frame"},
		{name: "truncated Prepared", hello: goodHello(), reply: prepared[:len(prepared)-2], want: "EOF"},
		{name: "Prepared without a procedure ID", hello: goodHello(), reply: frame(MsgPrepared, func(w *Buffer) { w.U32(0) }), want: "truncated"},
		{name: "response too short for a request ID", hello: goodHello(), reply: frame(MsgPrepared, nil), want: "truncated"},
		{name: "EOF instead of a Prepare answer", hello: goodHello(), reply: []byte{}, want: "EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewClient(scriptedServer(t, tc.hello, tc.reply))
			if err == nil {
				defer c.Close()
				if tc.reply == nil {
					t.Fatal("handshake accepted")
				}
				if c.Shards != 4 || c.Spec != "micro:rows=4096" {
					t.Fatalf("hello decoded as %d shards, spec %q", c.Shards, c.Spec)
				}
				_, err = c.Prepare("micro_ro")
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestClientRoundTrip pipelines three requests and has the server answer
// them out of order with an OK, an Err and a Vote: Recv must hand each back
// under the request ID the caller chose, with the reader positioned on the
// rest of the frame, and the request frames must decode to what was sent.
func TestClientRoundTrip(t *testing.T) {
	cli, srv := net.Pipe()
	srvErr := make(chan error, 1)
	go func() {
		defer srv.Close()
		srvErr <- func() error {
			srv.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := srv.Write(goodHello()); err != nil {
				return err
			}
			var got [3]struct {
				typ byte
				r   Reader
			}
			for i := range got {
				typ, payload, _, err := ReadFrame(srv, nil)
				if err != nil {
					return err
				}
				got[i].typ, got[i].r = typ, NewReader(payload)
			}
			// Exec 11: proc 7, partition 3, (long 42, bytes "ab").
			r := got[0].r
			if id, proc, part, argc := r.U32(), r.U32(), r.U16(), r.U16(); got[0].typ != MsgExec || id != 11 || proc != 7 || part != 3 || argc != 2 {
				return errors.New("exec frame header mismatch")
			}
			if tag, v := r.U8(), r.I64(); tag != TagLong || v != 42 {
				return errors.New("exec long argument mismatch")
			}
			if tag, b := r.U8(), r.Blob(); tag != TagBytes || string(b) != "ab" || r.Err != nil || r.Remaining() != 0 {
				return errors.New("exec bytes argument mismatch")
			}
			// Prepare2PC 12 of gtid 0xA00000001, then Commit2PC 13 of the same.
			r = got[1].r
			if id, gtid, proc, part, argc := r.U32(), r.U64(), r.U32(), r.U16(), r.U16(); got[1].typ != MsgPrepare2PC || id != 12 || gtid != 0xA00000001 || proc != 7 || part != 1 || argc != 0 || r.Err != nil {
				return errors.New("prepare2pc frame mismatch")
			}
			r = got[2].r
			if id, gtid, part := r.U32(), r.U64(), r.U16(); got[2].typ != MsgCommit2PC || id != 13 || gtid != 0xA00000001 || part != 1 || r.Err != nil {
				return errors.New("commit2pc frame mismatch")
			}
			for _, f := range [][]byte{
				frame(MsgVote, func(w *Buffer) { w.U32(12); w.U8(0); w.Str("no: row locked") }),
				frame(MsgOK, func(w *Buffer) { w.U32(13) }),
				frame(MsgErr, func(w *Buffer) { w.U32(11); w.Str(ErrOverload) }),
			} {
				if _, err := srv.Write(f); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	c, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := []catalog.Value{catalog.LongVal(42), {S: []byte("ab")}}
	if err := c.Exec(11, 7, 3, args); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare2PC(12, 0xA00000001, 7, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit2PC(13, 0xA00000001, 1); err != nil {
		t.Fatal(err)
	}

	id, typ, r, err := c.Recv()
	if err != nil || id != 12 || typ != MsgVote {
		t.Fatalf("first response: id %d type %#x err %v, want vote for 12", id, typ, err)
	}
	vote := r.Clone() // decoded after the next Recv has reused the frame buffer
	id, typ, r, err = c.Recv()
	if err != nil || id != 13 || typ != MsgOK || Ack(typ, r) != nil {
		t.Fatalf("second response: id %d type %#x err %v, want OK for 13", id, typ, err)
	}
	if yes, reason := vote.U8(), vote.Str(); yes != 0 || reason != "no: row locked" || vote.Err != nil {
		t.Fatalf("cloned vote decoded as %d %q (%v)", yes, reason, vote.Err)
	}
	id, typ, r, err = c.Recv()
	if err != nil || id != 11 || typ != MsgErr {
		t.Fatalf("third response: id %d type %#x err %v, want Err for 11", id, typ, err)
	}
	var se ServerError
	if err := Ack(typ, r); !errors.As(err, &se) || se != ErrOverload {
		t.Fatalf("Err frame decoded as %v, want ServerError(%q)", err, ErrOverload)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server side: %v", err)
	}
	if _, _, _, err := c.Recv(); err == nil {
		t.Fatal("Recv after the server hung up returned no error")
	}
}

// discardConn is a socket whose writes vanish: the Exec allocation gate
// measures the encoder, not a peer.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// TestClientExecAllocs is the runtime half of Client.Exec's
// //oltpsim:hotpath contract: a steady-state request encodes into the
// reused buffer and reaches the socket without allocating.
func TestClientExecAllocs(t *testing.T) {
	c := &Client{nc: discardConn{}}
	args := []catalog.Value{catalog.LongVal(42), {S: []byte("payload")}}
	if err := c.Exec(0, 7, 1, args); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := c.Exec(1, 7, 1, args); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Client.Exec allocates %.1f times per request, want 0", avg)
	}
}

// countingConn records the bytes of every Write on the wrapped socket, one
// entry per call (the client writes from one goroutine).
type countingConn struct {
	net.Conn
	writes [][]byte
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), b...))
	return c.Conn.Write(b)
}

// frameTypes splits one Write's bytes into its frames' types.
func frameTypes(t *testing.T, b []byte) []byte {
	t.Helper()
	var types []byte
	for r := bytes.NewReader(b); r.Len() > 0; {
		typ, _, _, err := ReadFrame(r, nil)
		if err != nil {
			t.Fatalf("write does not split into whole frames: %v", err)
		}
		types = append(types, typ)
	}
	return types
}

// TestClientWritesPerFlush is the client half of the one-write-per-burst
// rule: N queued Execs plus one Flush are one Write carrying N frames, a
// Flush with nothing queued writes nothing, and each send method alone is one
// Write of one frame.
func TestClientWritesPerFlush(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		if _, err := srv.Write(goodHello()); err != nil {
			return
		}
		for {
			if _, _, _, err := ReadFrame(srv, nil); err != nil {
				return
			}
		}
	}()
	cc := &countingConn{Conn: cli}
	c, err := NewClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	args := []catalog.Value{catalog.LongVal(42)}
	for id := uint32(0); id < n; id++ {
		c.QueueExec(id, 7, int(id)%4, args)
	}
	if len(cc.writes) != 0 {
		t.Fatalf("QueueExec wrote %d times before Flush", len(cc.writes))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(cc.writes) != 1 || len(frameTypes(t, cc.writes[0])) != n {
		t.Fatalf("%d queued Execs and two Flushes made %d writes, want one carrying all %d frames", n, len(cc.writes), n)
	}

	cc.writes = nil
	for _, send := range []struct {
		typ  byte
		call func() error
	}{
		{MsgExec, func() error { return c.Exec(n, 7, 1, args) }},
		{MsgPrepare2PC, func() error { return c.Prepare2PC(n+1, 5, 7, 1, args) }},
		{MsgCommit2PC, func() error { return c.Commit2PC(n+2, 5, 1) }},
		{MsgAbort2PC, func() error { return c.Abort2PC(n+3, 6, 1) }},
	} {
		if err := send.call(); err != nil {
			t.Fatal(err)
		}
		last := cc.writes[len(cc.writes)-1]
		if got := frameTypes(t, last); len(got) != 1 || got[0] != send.typ {
			t.Fatalf("send of frame %#x wrote frames %x", send.typ, got)
		}
	}
	if len(cc.writes) != 4 {
		t.Fatalf("four sends made %d writes, want 4", len(cc.writes))
	}
}
