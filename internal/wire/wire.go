// Package wire defines the oltpd client/server protocol: length-prefixed
// binary frames carrying prepare/exec/result messages. The server end is
// internal/server (oltpd); the client end is this package's Client
// (client.go) — the handshake, the request encoders and a Recv that tags each
// response with its request ID — which the load driver (internal/driver), the
// cluster coordinator (internal/cluster) and the tests all sit on.
//
// Framing (all integers little-endian):
//
//	u32 length | u8 type | payload[length-1]
//
// Messages:
//
//	Hello    (server→client, on accept): u8 version | u16 shards |
//	         u16 len | workload-spec string
//	Prepare  (client→server): u32 reqID | u16 len | procedure name
//	Prepared (server→client): u32 reqID | u32 procID
//	Exec     (client→server): u32 reqID | u32 procID | u16 part |
//	         u16 argc | argc × arg
//	OK       (server→client): u32 reqID
//	Err      (server→client): u32 reqID | u16 len | message
//
// Two-phase-commit messages (the cluster serving tier, internal/cluster):
//
//	Prepare2PC (coordinator→participant): u32 reqID | u64 gtid |
//	           u32 procID | u16 part | u16 argc | argc × arg —
//	           execute the branch with staged writes and vote
//	Vote       (participant→coordinator): u32 reqID | u8 commit |
//	           (commit=0 only) u16 len | reason
//	Commit2PC  (coordinator→participant): u32 reqID | u64 gtid | u16 part —
//	           install the staged writes; acked with OK
//	Abort2PC   (coordinator→participant): u32 reqID | u64 gtid | u16 part —
//	           discard the staged writes; acked with OK (presumed abort:
//	           an Abort2PC for an unknown gtid is a successful no-op,
//	           a Commit2PC for an unknown gtid is an Err)
//
// Argument encoding: u8 tag, then for TagLong an i64, for TagBytes a
// u32 length + raw bytes. This mirrors catalog.Value (I int64 / S []byte).
//
// Responses carry the client-assigned request ID because oltpd executes
// requests in per-shard batches: two requests pipelined on one connection to
// different shards may complete in either order.
//
// Several frames may share one socket write, in either direction: both ends
// queue frames in a Buffer and write whatever is pending when their writer
// would otherwise block.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Version is the protocol version exchanged in Hello.
const Version = 1

// Frame type bytes.
const (
	MsgHello    = 0x01
	MsgPrepare  = 0x02
	MsgPrepared = 0x03
	MsgExec     = 0x04
	MsgOK       = 0x05
	MsgErr      = 0x06

	// Two-phase commit (cluster serving tier).
	MsgPrepare2PC = 0x07
	MsgVote       = 0x08
	MsgCommit2PC  = 0x09
	MsgAbort2PC   = 0x0A
)

// Argument tags.
const (
	TagLong  = 0x00
	TagBytes = 0x01
)

// MaxFrame caps a frame's length field: a defense against garbage on the
// socket turning into a huge allocation.
const MaxFrame = 1 << 20

// ErrDraining is the Err-frame text a draining server sends for requests it
// refuses; clients recognize it and wind the connection down cleanly.
const ErrDraining = "oltpd: draining"

// ErrOverload is the Err-frame text an overloaded server sends for requests
// its per-shard admission control sheds (queue depth or measured service
// latency over the configured bound). Unlike ErrDraining it is a transient
// verdict about THIS request only: the connection stays up and clients keep
// sending — the warp-style drivers count shed responses separately from
// errors and keep their offered schedule.
const ErrOverload = "oltpd: overload"

// Buffer accumulates outgoing frames: Begin opens a frame after those already
// held, the appenders fill it, and Bytes returns every held frame back to
// back — one socket Write's worth, which ReadFrame splits again; Reset…Bytes
// is the single-frame case. The zero value is ready; the backing array is
// reused, so steady-state encoding does not allocate. Not safe for
// concurrent use — each connection/worker owns one.
type Buffer struct {
	b    []byte
	open int // offset of the open (last begun) frame's length prefix
}

// Begin opens a frame of the given type after the frames already held,
// reserving its length prefix.
//
//oltpsim:hotpath
func (w *Buffer) Begin(msgType byte) {
	w.seal()
	w.open = len(w.b)
	w.b = append(w.b, 0, 0, 0, 0, msgType)
}

// Reset empties the buffer and begins a frame of the given type.
//
//oltpsim:hotpath
func (w *Buffer) Reset(msgType byte) { w.Clear(); w.Begin(msgType) }

// Clear drops every held frame, keeping the backing array.
func (w *Buffer) Clear() { w.b, w.open = w.b[:0], 0 }

// Bytes seals the open frame (patching its length prefix) and returns every
// held frame; empty when nothing was begun since the last Clear. The slice is
// valid until the next Begin, Reset or Clear.
//
//oltpsim:hotpath
func (w *Buffer) Bytes() []byte { w.seal(); return w.b }

// seal patches the open frame's length prefix; sealing twice is harmless.
func (w *Buffer) seal() {
	if len(w.b) > 0 {
		binary.LittleEndian.PutUint32(w.b[w.open:], uint32(len(w.b)-w.open-4))
	}
}

// U8 appends one byte.
//
//oltpsim:hotpath
func (w *Buffer) U8(v byte) { w.b = append(w.b, v) }

// U16 appends a little-endian uint16.
//
//oltpsim:hotpath
func (w *Buffer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// U32 appends a little-endian uint32.
//
//oltpsim:hotpath
func (w *Buffer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// I64 appends a little-endian int64.
//
//oltpsim:hotpath
func (w *Buffer) I64(v int64) { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }

// U64 appends a little-endian uint64 (2PC global transaction IDs).
//
//oltpsim:hotpath
func (w *Buffer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Str appends a u16-length-prefixed string.
//
//oltpsim:hotpath
func (w *Buffer) Str(s string) {
	w.U16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// Blob appends a u32-length-prefixed byte string.
//
//oltpsim:hotpath
func (w *Buffer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.b = append(w.b, b...)
}

// ReadFrame reads one frame into buf (growing it as needed) and returns the
// message type and payload (aliasing buf, valid until the next read into it).
func ReadFrame(r io.Reader, buf []byte) (msgType byte, payload, newBuf []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("wire: bad frame length %d", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// Reader decodes a frame payload. Decoding errors latch into Err; callers
// check once at the end instead of after every field.
type Reader struct {
	b   []byte
	Err error
}

// NewReader wraps a payload.
func NewReader(payload []byte) Reader { return Reader{b: payload} }

func (r *Reader) fail() {
	if r.Err == nil {
		r.Err = fmt.Errorf("wire: truncated frame")
	}
}

// U8 decodes one byte.
func (r *Reader) U8() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 decodes a little-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// I64 decodes a little-endian int64.
func (r *Reader) I64() int64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Str decodes a u16-length-prefixed string (copying).
func (r *Reader) Str() string {
	n := int(r.U16())
	if len(r.b) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Blob decodes a u32-length-prefixed byte string. The result aliases the
// payload — callers copy it if it must outlive the frame buffer.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	if n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// Clone copies the undecoded remainder out of the frame buffer it aliases,
// for a response that must outlive the next read.
func (r Reader) Clone() Reader { return Reader{b: append([]byte(nil), r.b...), Err: r.Err} }

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.b) }
