package simmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

type recordingTracer struct {
	events []accessEvent
}

type accessEvent struct {
	addr  Addr
	size  int
	write bool
}

func (r *recordingTracer) OnData(addr Addr, size int, write bool) {
	r.events = append(r.events, accessEvent{addr, size, write})
}

func TestAllocDataAlignment(t *testing.T) {
	m := New()
	for _, align := range []int{1, 8, 64, 4096} {
		a := m.AllocData(10, align)
		if uint64(a)%uint64(align) != 0 {
			t.Errorf("AllocData(10, %d) = %#x, not aligned", align, a)
		}
		if a < DataBase {
			t.Errorf("data address %#x below DataBase", a)
		}
	}
}

func TestAllocDataDisjoint(t *testing.T) {
	m := New()
	prevEnd := Addr(0)
	for i := 0; i < 100; i++ {
		size := 1 + i*7%100
		a := m.AllocData(size, 8)
		if a < prevEnd {
			t.Fatalf("allocation %d at %#x overlaps previous end %#x", i, a, prevEnd)
		}
		prevEnd = a + Addr(size)
	}
	if got := m.DataAllocated(); got == 0 {
		t.Error("DataAllocated() = 0 after allocations")
	}
}

func TestAllocCodeSegmentSeparation(t *testing.T) {
	m := New()
	c := m.AllocCode(1 << 20)
	d := m.AllocData(1<<20, 64)
	if c >= DataBase {
		t.Errorf("code address %#x inside data segment", c)
	}
	if d < DataBase {
		t.Errorf("data address %#x below data segment", d)
	}
	if uint64(c)%4096 != 0 {
		t.Errorf("code address %#x not 4KiB-aligned", c)
	}
}

// TestAllocCodeBound pins the code segment's end: code is handed out up to
// CodeLimit exactly, and not a byte past it, because the simulated caches
// index code lines only below it.
func TestAllocCodeBound(t *testing.T) {
	m := New()
	first := m.AllocCode(4096)
	rest := int(CodeLimit - first - 4096)
	if last := m.AllocCode(rest); last+Addr(rest) != CodeLimit {
		t.Fatalf("AllocCode(%d) = %#x, want it to end at CodeLimit %#x", rest, uint64(last), uint64(CodeLimit))
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "code segment") {
			t.Errorf("AllocCode past CodeLimit: panic %q, want one naming the code segment", msg)
		}
	}()
	m.AllocCode(1)
}

func TestAllocPanicsOnBadArgs(t *testing.T) {
	m := New()
	for _, fn := range []func(){
		func() { m.AllocData(0, 8) },
		func() { m.AllocData(8, 3) },
		func() { m.AllocData(8, 0) },
		func() { m.AllocCode(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid allocation arguments")
				}
			}()
			fn()
		}()
	}
}

func TestReadWriteU64(t *testing.T) {
	m := New()
	a := m.AllocData(64, 8)
	m.WriteU64(a, 0xdeadbeefcafebabe)
	m.WriteU64(a+8, 42)
	if got := m.ReadU64(a); got != 0xdeadbeefcafebabe {
		t.Errorf("ReadU64 = %#x", got)
	}
	if got := m.ReadU64(a + 8); got != 42 {
		t.Errorf("ReadU64 = %d", got)
	}
}

func TestReadWriteU32(t *testing.T) {
	m := New()
	a := m.AllocData(16, 4)
	m.WriteU32(a, 0x01020304)
	m.WriteU32(a+4, 0xfffefdfc)
	if got := m.ReadU32(a); got != 0x01020304 {
		t.Errorf("ReadU32 = %#x", got)
	}
	if got := m.ReadU32(a + 4); got != 0xfffefdfc {
		t.Errorf("ReadU32 = %#x", got)
	}
}

func TestReadWriteBytesAcrossPages(t *testing.T) {
	m := New()
	// Allocate enough to straddle a 64 KiB backing page boundary.
	a := m.AllocData(3*pageSize, 1)
	src := make([]byte, 2*pageSize)
	for i := range src {
		src[i] = byte(i * 31)
	}
	start := a + Addr(pageSize-100) // crosses two boundaries
	m.WriteBytes(start, src)
	dst := make([]byte, len(src))
	m.ReadBytes(start, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestU64AcrossPageBoundary(t *testing.T) {
	m := New()
	a := m.AllocData(2*pageSize, 1)
	boundary := (a &^ (pageSize - 1)) + pageSize // first boundary inside the allocation
	addr := boundary - 3                         // 8-byte value straddles the page boundary
	m.WriteU64(addr, 0x1122334455667788)
	if got := m.ReadU64(addr); got != 0x1122334455667788 {
		t.Errorf("straddling ReadU64 = %#x", got)
	}
}

func TestZeroFillSemantics(t *testing.T) {
	m := New()
	a := m.AllocData(1024, 8)
	if got := m.ReadU64(a + 512); got != 0 {
		t.Errorf("fresh memory reads %#x, want 0", got)
	}
}

func TestTracingOnOff(t *testing.T) {
	m := New()
	tr := &recordingTracer{}
	m.SetTracer(tr)
	a := m.AllocData(64, 8)

	m.WriteU64(a, 1) // tracing disabled by default
	if len(tr.events) != 0 {
		t.Fatalf("untraced access reported: %v", tr.events)
	}

	m.EnableTracing(true)
	if !m.Tracing() {
		t.Fatal("Tracing() = false after enable")
	}
	m.WriteU64(a, 2)
	m.ReadU64(a + 8)
	m.ReadBytes(a, make([]byte, 16))
	m.Touch(a+32, 4, true)
	want := []accessEvent{
		{a, 8, true},
		{a + 8, 8, false},
		{a, 16, false},
		{a + 32, 4, true},
	}
	if len(tr.events) != len(want) {
		t.Fatalf("got %d events, want %d", len(tr.events), len(want))
	}
	for i, ev := range want {
		if tr.events[i] != ev {
			t.Errorf("event %d = %+v, want %+v", i, tr.events[i], ev)
		}
	}

	m.EnableTracing(false)
	m.ReadU64(a)
	if len(tr.events) != len(want) {
		t.Error("access reported while tracing disabled")
	}
}

func TestTracingWithoutTracerIsSafe(t *testing.T) {
	m := New()
	m.EnableTracing(true)
	a := m.AllocData(8, 8)
	m.WriteU64(a, 7) // must not panic
	if m.Tracing() {
		t.Error("Tracing() = true with no tracer attached")
	}
}

// Property: arbitrary interleavings of byte writes are read back exactly,
// matching a plain []byte reference model.
func TestQuickReadAfterWrite(t *testing.T) {
	const span = 1 << 18
	m := New()
	base := m.AllocData(span, 1)
	ref := make([]byte, span)

	rng := rand.New(rand.NewSource(1))
	f := func(off uint32, n uint8, seed int64) bool {
		offset := int(off) % (span - 256)
		length := 1 + int(n)%128
		data := make([]byte, length)
		r := rand.New(rand.NewSource(seed))
		r.Read(data)
		m.WriteBytes(base+Addr(offset), data)
		copy(ref[offset:], data)

		// Check a random window around the write.
		checkOff := offset - 32
		if checkOff < 0 {
			checkOff = 0
		}
		checkLen := length + 64
		if checkOff+checkLen > span {
			checkLen = span - checkOff
		}
		got := make([]byte, checkLen)
		m.ReadBytes(base+Addr(checkOff), got)
		return bytes.Equal(got, ref[checkOff:checkOff+checkLen])
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickU64RoundTrip(t *testing.T) {
	m := New()
	base := m.AllocData(1<<16, 8)
	f := func(slot uint16, v uint64) bool {
		a := base + Addr(slot)*8%(1<<16-8)
		m.WriteU64(a, v)
		return m.ReadU64(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteU64Untraced(b *testing.B) {
	m := New()
	a := m.AllocData(1<<20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteU64(a+Addr(i*8%(1<<20-8)), uint64(i))
	}
}

func BenchmarkReadU64Untraced(b *testing.B) {
	m := New()
	a := m.AllocData(1<<20, 64)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.ReadU64(a + Addr(i*8%(1<<20-8)))
	}
	_ = sink
}

// TestEachPage: exactly the pages that were touched, in address order, with
// the bytes that were written — a reserved range nothing touched stays
// unmaterialized and unvisited.
func TestEachPage(t *testing.T) {
	m := New()
	a := m.AllocData(3*pageSize, pageSize)
	m.AllocData(64*pageSize, pageSize) // reserved, never touched
	b := m.AllocData(pageSize, pageSize)
	m.WriteU64(b+8, 7)
	m.WriteU64(a+2*pageSize, 9)
	var bases []Addr
	m.EachPage(func(base Addr, data []byte) {
		bases = append(bases, base)
		if len(data) != pageSize {
			t.Fatalf("page %#x has %d bytes", base, len(data))
		}
		if base == b && data[8] != 7 || base == a+2*pageSize && data[0] != 9 {
			t.Errorf("page %#x does not hold what was written", base)
		}
	})
	if len(bases) != 2 || bases[0] != a+2*pageSize || bases[1] != b {
		t.Fatalf("visited %#x, want [%#x %#x]", bases, a+2*pageSize, b)
	}
}
