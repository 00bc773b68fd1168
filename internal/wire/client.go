package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"oltpsim/internal/catalog"
)

// ServerError is the text of an Err frame (or of a NO vote) as a Go error,
// so callers classify a refusal by comparing against ErrDraining /
// ErrOverload (errors.As) instead of searching error strings.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// Client is the client end of one oltpd connection — the only one in the
// tree. It owns the socket, consumes and checks the server's Hello, resolves
// procedure names, and encodes every request frame; Recv hands responses
// back tagged with the request ID the caller chose.
//
// The send methods (Exec, Prepare2PC, Commit2PC, Abort2PC) encode one frame
// into the pending buffer and Flush it; a pipelining caller uses QueueExec
// and Flushes once before it would block. The sender owns the pending buffer
// and Recv owns the decode buffer, so one goroutine may send while another
// receives: pipelining is the caller keeping several request IDs in flight,
// and responses to different shards may come back in either order. Prepare
// does both and must not overlap other traffic.
type Client struct {
	nc    net.Conn
	br    *bufio.Reader
	wbuf  Buffer
	frame []byte

	// Shards and Spec are the partition count and workload spec string the
	// server announced in its Hello; callers verify them against what they
	// are about to generate.
	Shards int
	Spec   string
}

// Dial connects to an oltpd and consumes its Hello.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc)
}

// NewClient takes ownership of an established connection (closing it on
// failure) and consumes the server's Hello, rejecting anything but a
// well-formed Hello of this protocol version.
func NewClient(nc net.Conn) (*Client, error) {
	c := &Client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	typ, payload, frame, err := ReadFrame(c.br, nil)
	c.frame = frame
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("reading hello: %w", err)
	}
	if typ != MsgHello {
		nc.Close()
		return nil, fmt.Errorf("expected hello, got frame %#x", typ)
	}
	r := NewReader(payload)
	ver := r.U8()
	c.Shards = int(r.U16())
	c.Spec = r.Str()
	if r.Err != nil || ver != Version {
		nc.Close()
		return nil, fmt.Errorf("bad hello (version %d): %v", ver, r.Err)
	}
	return c, nil
}

// Close closes the socket, failing any Recv in progress.
func (c *Client) Close() error { return c.nc.Close() }

// SetReadDeadline bounds the following Recv calls (zero = no deadline).
func (c *Client) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Prepare resolves a procedure name to the ID Exec and Prepare2PC take. It
// is a synchronous exchange: no other request may be in flight.
func (c *Client) Prepare(name string) (uint32, error) {
	c.wbuf.Begin(MsgPrepare)
	c.wbuf.U32(0)
	c.wbuf.Str(name)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	_, typ, r, err := c.Recv()
	if err != nil {
		return 0, err
	}
	switch typ {
	case MsgPrepared:
		id := r.U32()
		return id, r.Err
	case MsgErr:
		return 0, fmt.Errorf("prepare %q: %w", name, Ack(typ, r))
	default:
		return 0, fmt.Errorf("prepare %q: unexpected frame %#x", name, typ)
	}
}

// Exec sends one single-partition call; its OK or Err response carries id.
//
//oltpsim:hotpath
func (c *Client) Exec(id, procID uint32, part int, args []catalog.Value) error {
	c.QueueExec(id, procID, part, args)
	return c.Flush()
}

// QueueExec encodes one single-partition call into the pending buffer;
// nothing reaches the socket until Flush.
func (c *Client) QueueExec(id, procID uint32, part int, args []catalog.Value) {
	c.encodeCall(MsgExec, id, 0, procID, part, args)
}

// Prepare2PC sends one branch of global transaction gtid to execute with
// staged writes; the participant answers with a Vote (or an Err when
// admission refuses the branch outright).
func (c *Client) Prepare2PC(id uint32, gtid uint64, procID uint32, part int, args []catalog.Value) error {
	c.encodeCall(MsgPrepare2PC, id, gtid, procID, part, args)
	return c.Flush()
}

// encodeCall appends an Exec or Prepare2PC frame — they differ by the gtid
// field — and is the one encoder of TagLong/TagBytes arguments.
func (c *Client) encodeCall(msg byte, id uint32, gtid uint64, procID uint32, part int, args []catalog.Value) {
	c.wbuf.Begin(msg)
	c.wbuf.U32(id)
	if msg == MsgPrepare2PC {
		c.wbuf.U64(gtid)
	}
	c.wbuf.U32(procID)
	c.wbuf.U16(uint16(part))
	c.wbuf.U16(uint16(len(args)))
	for _, a := range args {
		if a.S != nil {
			c.wbuf.U8(TagBytes)
			c.wbuf.Blob(a.S)
		} else {
			c.wbuf.U8(TagLong)
			c.wbuf.I64(a.I)
		}
	}
}

// Commit2PC tells part to install gtid's staged writes; acked with OK.
func (c *Client) Commit2PC(id uint32, gtid uint64, part int) error {
	return c.decision(MsgCommit2PC, id, gtid, part)
}

// Abort2PC tells part to discard gtid's staged writes; acked with OK.
func (c *Client) Abort2PC(id uint32, gtid uint64, part int) error {
	return c.decision(MsgAbort2PC, id, gtid, part)
}

func (c *Client) decision(msg byte, id uint32, gtid uint64, part int) error {
	c.wbuf.Begin(msg)
	c.wbuf.U32(id)
	c.wbuf.U64(gtid)
	c.wbuf.U16(uint16(part))
	return c.Flush()
}

// Flush writes every pending frame in one Write (nothing, when none is
// pending) and empties the buffer; after an error the connection is unusable.
func (c *Client) Flush() error {
	b := c.wbuf.Bytes()
	if len(b) == 0 {
		return nil
	}
	_, err := c.nc.Write(b)
	c.wbuf.Clear()
	return err
}

// Recv reads the next response frame and returns the request ID it answers,
// its type, and a Reader positioned after the ID (aliasing the decode
// buffer: valid until the next Recv — Clone what must outlive it).
func (c *Client) Recv() (id uint32, typ byte, r Reader, err error) {
	var payload []byte
	typ, payload, c.frame, err = ReadFrame(c.br, c.frame)
	if err != nil {
		return 0, 0, Reader{}, err
	}
	r = NewReader(payload)
	id = r.U32()
	return id, typ, r, r.Err
}

// Ack turns the remainder of an OK or Err response into an error: nil for
// OK, a ServerError carrying the server's text for Err.
func Ack(typ byte, r Reader) error {
	switch typ {
	case MsgOK:
		return nil
	case MsgErr:
		msg := r.Str()
		if r.Err != nil {
			return r.Err
		}
		return ServerError(msg)
	default:
		return fmt.Errorf("wire: unexpected frame %#x", typ)
	}
}
