package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var w Buffer
	w.Reset(MsgExec)
	w.U32(7)       // reqID
	w.U32(3)       // procID
	w.U16(1)       // part
	w.U16(2)       // argc
	w.U8(TagLong)  // arg 0
	w.I64(-42)     //
	w.U8(TagBytes) // arg 1
	w.Blob([]byte("hello"))

	var conn bytes.Buffer
	conn.Write(w.Bytes())
	// A second frame on the same stream.
	w.Reset(MsgOK)
	w.U32(7)
	conn.Write(w.Bytes())

	typ, payload, buf, err := ReadFrame(&conn, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != MsgExec {
		t.Fatalf("type = %#x, want MsgExec", typ)
	}
	r := NewReader(payload)
	if id, proc, part, argc := r.U32(), r.U32(), r.U16(), r.U16(); id != 7 || proc != 3 || part != 1 || argc != 2 {
		t.Fatalf("decoded header = %d/%d/%d/%d", id, proc, part, argc)
	}
	if tag := r.U8(); tag != TagLong {
		t.Fatalf("arg0 tag = %d", tag)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("arg0 = %d, want -42", v)
	}
	if tag := r.U8(); tag != TagBytes {
		t.Fatalf("arg1 tag = %d", tag)
	}
	if b := r.Blob(); string(b) != "hello" {
		t.Fatalf("arg1 = %q, want hello", b)
	}
	if r.Err != nil || r.Remaining() != 0 {
		t.Fatalf("leftover decode state: err=%v remaining=%d", r.Err, r.Remaining())
	}

	typ, payload, _, err = ReadFrame(&conn, buf)
	if err != nil || typ != MsgOK {
		t.Fatalf("second frame: type=%#x err=%v", typ, err)
	}
	r = NewReader(payload)
	if id := r.U32(); id != 7 || r.Err != nil {
		t.Fatalf("second frame id = %d err=%v", id, r.Err)
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32()
	if r.Err == nil {
		t.Fatal("truncated U32 did not latch an error")
	}
	// Further reads stay safe and keep the first error.
	_ = r.I64()
	_ = r.Str()
	_ = r.Blob()
	if r.Err == nil || !strings.Contains(r.Err.Error(), "truncated") {
		t.Fatalf("latched error = %v", r.Err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Length 0 (no type byte).
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Absurd length.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x01}), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated body.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, 0x01}), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var w Buffer
	w.Reset(MsgHello)
	w.U8(Version)
	w.U16(4)
	w.Str("tpcc:warehouses=4")
	typ, payload, _, err := ReadFrame(bytes.NewReader(w.Bytes()), nil)
	if err != nil || typ != MsgHello {
		t.Fatalf("hello: %#x %v", typ, err)
	}
	r := NewReader(payload)
	if v, shards, spec := r.U8(), r.U16(), r.Str(); v != Version || shards != 4 || spec != "tpcc:warehouses=4" {
		t.Fatalf("decoded hello = %d/%d/%q", v, shards, spec)
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestBufferReuse proves the encode path reuses its backing array (the
// per-connection zero-allocation property the server relies on), for one
// frame at a time and for a pending buffer of several.
func TestBufferReuse(t *testing.T) {
	var w Buffer
	batch := func() {
		w.Clear()
		for id := uint32(0); id < 16; id++ {
			w.Begin(MsgOK)
			w.U32(id)
		}
		_ = w.Bytes()
	}
	batch()
	if avg := testing.AllocsPerRun(1000, func() {
		w.Reset(MsgOK)
		w.U32(2)
		_ = w.Bytes()
	}); avg != 0 {
		t.Fatalf("steady-state encode allocates %.1f times per frame, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, batch); avg != 0 {
		t.Fatalf("steady-state multi-frame encode allocates %.1f times per batch, want 0", avg)
	}
}

// TestBufferHoldsSeveralFrames: frames opened with Begin follow the ones
// already held, Bytes seals each and returns them back to back, and
// ReadFrame splits them again in order — including a frame begun after an
// earlier Bytes, and nothing at all after Clear.
func TestBufferHoldsSeveralFrames(t *testing.T) {
	var w Buffer
	if b := w.Bytes(); len(b) != 0 {
		t.Fatalf("empty buffer returned %d bytes", len(b))
	}
	w.Begin(MsgOK)
	w.U32(1)
	w.Begin(MsgErr)
	w.U32(2)
	w.Str("oltpd: draining")
	_ = w.Bytes() // seals the Err frame; the next Begin must not disturb it
	w.Begin(MsgVote)
	w.U32(3)
	w.U8(1)
	w.Begin(MsgOK)
	w.U32(4)

	stream := bytes.NewReader(w.Bytes())
	var buf []byte
	for _, want := range []struct {
		typ  byte
		id   uint32
		rest int
	}{{MsgOK, 1, 0}, {MsgErr, 2, 2 + len("oltpd: draining")}, {MsgVote, 3, 1}, {MsgOK, 4, 0}} {
		typ, payload, nb, err := ReadFrame(stream, buf)
		buf = nb
		if err != nil {
			t.Fatalf("frame %d: %v", want.id, err)
		}
		r := NewReader(payload)
		if id := r.U32(); typ != want.typ || id != want.id || r.Remaining() != want.rest {
			t.Fatalf("frame %d decoded as type %#x id %d with %d bytes left, want %#x/%d/%d",
				want.id, typ, id, r.Remaining(), want.typ, want.id, want.rest)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes trail the last frame", stream.Len())
	}

	w.Clear()
	if b := w.Bytes(); len(b) != 0 {
		t.Fatalf("cleared buffer returned %d bytes", len(b))
	}
}

// TestResetFramesUnchanged pins Reset…Bytes byte for byte against the bytes
// the single-frame Buffer produced before it could hold several frames:
// benchmark/'s raw client and every peer of an older build see no change.
func TestResetFramesUnchanged(t *testing.T) {
	var w Buffer
	w.Reset(MsgVote) // a leftover frame Reset must discard
	w.U32(99)
	for _, tc := range []struct {
		name  string
		build func()
		want  []byte
	}{
		{"exec", func() {
			w.Reset(MsgExec)
			w.U32(7)
			w.U32(3)
			w.U16(1)
			w.U16(2)
			w.U8(TagLong)
			w.I64(-42)
			w.U8(TagBytes)
			w.Blob([]byte("ab"))
		}, []byte{0x1d, 0x0, 0x0, 0x0, 0x4, 0x7, 0x0, 0x0, 0x0, 0x3, 0x0, 0x0, 0x0, 0x1, 0x0, 0x2, 0x0,
			0x0, 0xd6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1, 0x2, 0x0, 0x0, 0x0, 0x61, 0x62}},
		{"err", func() {
			w.Reset(MsgErr)
			w.U32(9)
			w.Str(ErrOverload)
		}, []byte{0x16, 0x0, 0x0, 0x0, 0x6, 0x9, 0x0, 0x0, 0x0, 0xf, 0x0,
			0x6f, 0x6c, 0x74, 0x70, 0x64, 0x3a, 0x20, 0x6f, 0x76, 0x65, 0x72, 0x6c, 0x6f, 0x61, 0x64}},
		{"vote", func() {
			w.Reset(MsgVote)
			w.U32(12)
			w.U8(0)
			w.Str("no")
		}, []byte{0xa, 0x0, 0x0, 0x0, 0x8, 0xc, 0x0, 0x0, 0x0, 0x0, 0x2, 0x0, 0x6e, 0x6f}},
	} {
		tc.build()
		if got := w.Bytes(); !bytes.Equal(got, tc.want) {
			t.Errorf("%s frame:\n got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
