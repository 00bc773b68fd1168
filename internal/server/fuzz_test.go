package server

import (
	"net"
	"testing"
	"time"

	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// Script ops of FuzzServeConn: a script is (op, arg) byte pairs.
const (
	opExec        = iota // a valid micro_ro Exec
	opExecBadProc        // an Exec naming a procedure ID nobody prepared
	opExecBadPart        // an Exec for a partition out of range
	opExecBadTag         // an Exec whose argument carries an unknown tag
	opExecNoArgs         // an Exec with too few arguments for its procedure
	opPrepare            // Prepare of micro_ro or of an unknown name
	opPrepare2PC         // a 2PC branch prepare (gtid 1-4)
	opCommit2PC          // a 2PC commit decision (gtid 1-4)
	opAbort2PC           // a 2PC abort decision (gtid 1-4)
	opFlush              // write the frames queued so far in one Write
	opBadType            // a frame of a type no client sends: the server hangs up
	opTruncated          // an Exec whose arguments overrun the frame: the server hangs up
	opClose              // the client closes mid-stream
	opGarbage            // a frame of the arg's type, then the next script bytes as payload
	numOps
)

// FuzzServeConn feeds arbitrary frame sequences into one server connection
// over net.Pipe. Whatever arrives, the server must never panic, never wedge a
// shard (every answer arrives and Shutdown returns in bounded time), answer
// each request at most once, with its own ID and a frame type that answers
// its kind — exactly once when the client kept the stream well-formed — and
// leave its request books balanced at Shutdown: every admitted request was
// retired. Batched answers are the way to get "exactly once" wrong.
//
// CI runs this as a 20-second smoke:
//
//	go test -run '^FuzzServeConn$' -fuzz FuzzServeConn -fuzztime 20s ./internal/server
func FuzzServeConn(f *testing.F) {
	burst := []byte{}
	for i := byte(0); i < 16; i++ {
		burst = append(burst, opExec, i)
	}
	f.Add(append(burst, opFlush, 0, opExec, 33))                                                     // pipelined burst
	f.Add([]byte{opExec, 1, opExecBadTag, 0, opExec, 2, opExecNoArgs, 0, opFlush, 0, opExec, 3})     // bad tags, bad arity
	f.Add([]byte{opExecBadProc, 0, opExec, 4, opExecBadPart, 0, opPrepare, 0, opPrepare, 1})         // unknown procedure IDs and names
	f.Add(append(append([]byte{}, burst[:8]...), opFlush, 0, opExec, 5, opExec, 6, opClose, 0))      // mid-stream close
	f.Add([]byte{opExec, 7, opPrepare2PC, 1, opExec, 8, opFlush, 0, opCommit2PC, 1, opAbort2PC, 2})  // 2PC mid-batch
	f.Add([]byte{opPrepare2PC, 2, opPrepare2PC, 3, opExec, 9, opAbort2PC, 7, opCommit2PC, 2})        // decision timeouts
	f.Add([]byte{opExec, 10, opBadType, 0, opExec, 11})                                              // unexpected frame type
	f.Add([]byte{opExec, 12, opTruncated, 0, opExec, 13})                                            // truncated frame
	f.Add([]byte{opExec, 14, opGarbage, wire.MsgExec, 0, 0, 0, 0, 1, 0, 1, 0, 0, 42, 0, 0, 0, 0, 0}) // hostile payload

	f.Fuzz(func(t *testing.T, script []byte) {
		s, err := New(Config{System: systems.VoltDB, Shards: 2, TwoPCTimeout: 20 * time.Millisecond,
			Spec: workload.Spec{Kind: "micro", Rows: 256, RowsPerTx: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		procID := s.procIDs["micro_ro"]
		cli, srv := net.Pipe()
		s.serveConn(srv)
		cli.SetDeadline(time.Now().Add(10 * time.Second)) // a wedged server fails the read or write
		if typ, _, _, err := wire.ReadFrame(cli, nil); err != nil || typ != wire.MsgHello {
			t.Fatalf("hello: frame %#x, %v", typ, err)
		}

		type answer struct {
			id  uint32
			typ byte
		}
		answers := make(chan answer, 4*len(script)+1) // never blocks the reader: at most one answer per frame
		go func() {
			defer close(answers)
			var buf []byte
			for {
				typ, payload, nb, err := wire.ReadFrame(cli, buf)
				if err != nil {
					return
				}
				buf = nb
				r := wire.NewReader(payload)
				answers <- answer{r.U32(), typ}
			}
		}()

		// Replay the script, recording what each request ID asked.
		var w wire.Buffer
		kind := make(map[uint32]byte) // request ID -> the frame type it sent
		cut := false                  // the stream stopped being well-formed
		nextID := uint32(1)           // 0 is the server's answer to a frame it cannot attribute
		request := func(typ byte) {
			kind[nextID] = typ
			w.Begin(typ)
			w.U32(nextID)
			nextID++
		}
		exec := func(proc uint32, part int, tag byte, argc uint16, key int64) {
			request(wire.MsgExec)
			w.U32(proc)
			w.U16(uint16(part))
			w.U16(argc)
			if argc > 0 {
				w.U8(tag)
				w.I64(key)
			}
		}
		flush := func() bool {
			if _, err := cli.Write(w.Bytes()); err != nil {
				cut = true // the server hung up (or the client closed)
				return false
			}
			w.Clear()
			return true
		}
	replay:
		for i := 0; i+1 < len(script) && i < 128; i += 2 {
			op, arg := script[i]%numOps, script[i+1]
			part := int(arg & 1)
			key := int64(arg>>1)*2 + int64(part) // partition-local: key ≡ part (mod 2)
			switch op {
			case opExec:
				exec(procID, part, wire.TagLong, 1, key)
			case opExecBadProc:
				exec(0xFFFF, part, wire.TagLong, 1, key)
			case opExecBadPart:
				exec(procID, 9, wire.TagLong, 1, key)
			case opExecBadTag:
				exec(procID, part, 0x7F, 1, key)
			case opExecNoArgs:
				exec(procID, part, 0, 0, 0)
			case opPrepare:
				request(wire.MsgPrepare)
				w.Str([]string{"micro_ro", "no_such_proc"}[part])
			case opPrepare2PC:
				request(wire.MsgPrepare2PC)
				w.U64(uint64(arg%4) + 1)
				w.U32(procID)
				w.U16(uint16(part))
				w.U16(1)
				w.U8(wire.TagLong)
				w.I64(key)
			case opCommit2PC, opAbort2PC:
				request(map[byte]byte{opCommit2PC: wire.MsgCommit2PC, opAbort2PC: wire.MsgAbort2PC}[op])
				w.U64(uint64(arg%4) + 1)
				w.U16(uint16(arg >> 2 & 1))
			case opFlush:
				if !flush() {
					break replay
				}
			case opBadType, opTruncated, opGarbage:
				cut = true
				switch op {
				case opBadType:
					request(0x7F)
				case opTruncated:
					exec(procID, part, wire.TagLong, 2, key)
				case opGarbage:
					request(arg)
					end := min(i+2+int(arg%16), len(script))
					for _, b := range script[i+2 : end] {
						w.U8(b)
					}
					i = end - 2
				}
			case opClose:
				cut = true
				flush()
				cli.Close()
				break replay
			}
		}
		flush()

		// Collect: every request exactly once on a well-formed stream; on a
		// cut one, whatever arrives before the connection ends.
		got := make(map[uint32]int)
		if !cut {
			for len(got) < len(kind) {
				a, ok := <-answers
				if !ok {
					t.Fatalf("connection ended with %d of %d requests answered", len(got), len(kind))
				}
				check(t, a.id, a.typ, kind, got, false)
			}
		}
		cli.Close()
		for a := range answers {
			check(t, a.id, a.typ, kind, got, cut)
		}

		stopped := make(chan struct{})
		go func() { s.Shutdown(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown wedged: a shard worker never retired its requests")
		}
		var admitted, retired uint64
		for p := range s.shard {
			admitted += s.shard[p].requests.Load()
			retired += s.shard[p].svcHist.Count()
		}
		if admitted != retired {
			t.Fatalf("books unbalanced: %d requests admitted, %d retired", admitted, retired)
		}
	})
}

// check accounts one answer: it must carry a request ID the client sent (or
// 0, for a frame the server could not attribute, only on a cut stream),
// arrive once, and be a frame type that answers that request's kind.
func check(t *testing.T, id uint32, typ byte, kind map[uint32]byte, got map[uint32]int, cut bool) {
	t.Helper()
	if id == 0 && cut && typ == wire.MsgErr {
		return
	}
	sent, ok := kind[id]
	if !ok {
		t.Fatalf("answer %#x carries request ID %d, which the client never sent", typ, id)
	}
	if got[id]++; got[id] > 1 {
		t.Fatalf("request %d answered %d times", id, got[id])
	}
	want := map[byte]byte{wire.MsgExec: wire.MsgOK, wire.MsgPrepare: wire.MsgPrepared,
		wire.MsgPrepare2PC: wire.MsgVote, wire.MsgCommit2PC: wire.MsgOK, wire.MsgAbort2PC: wire.MsgOK}[sent]
	if typ != wire.MsgErr && typ != want {
		t.Fatalf("request %d (frame %#x) answered with frame %#x", id, sent, typ)
	}
}
