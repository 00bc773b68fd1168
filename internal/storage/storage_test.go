package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"oltpsim/internal/catalog"
	"oltpsim/internal/simmem"
)

func microSchema() *catalog.Schema {
	return catalog.NewSchema("micro",
		catalog.Column{Name: "key", Type: catalog.TypeLong},
		catalog.Column{Name: "val", Type: catalog.TypeLong},
	)
}

func TestSlottedPageInsertRead(t *testing.T) {
	m := simmem.New()
	base := m.AllocData(PageSize, PageSize)
	InitPage(m, base, 7)
	if PageID(m, base) != 7 {
		t.Error("page ID lost")
	}
	recs := [][]byte{[]byte("alpha"), []byte("bravo-bravo"), []byte("c")}
	for i, r := range recs {
		slot, ok := PageInsert(m, base, r)
		if !ok || slot != i {
			t.Fatalf("insert %d: slot=%d ok=%v", i, slot, ok)
		}
	}
	if got := PageSlotCount(m, base); got != 3 {
		t.Errorf("slot count = %d", got)
	}
	for i, r := range recs {
		buf := make([]byte, 64)
		n := PageRead(m, base, i, buf)
		if !bytes.Equal(buf[:n], r) {
			t.Errorf("slot %d = %q, want %q", i, buf[:n], r)
		}
	}
}

func TestSlottedPageFillsUp(t *testing.T) {
	m := simmem.New()
	base := m.AllocData(PageSize, PageSize)
	InitPage(m, base, 1)
	rec := make([]byte, 100)
	inserted := 0
	for {
		if _, ok := PageInsert(m, base, rec); !ok {
			break
		}
		inserted++
	}
	// 8192 bytes / (100 record + 4 slot) ~ 78 records.
	if inserted < 70 || inserted > 80 {
		t.Errorf("page held %d 100-byte records", inserted)
	}
	if PageFreeSpace(m, base) >= 104 {
		t.Errorf("free space %d but insert failed", PageFreeSpace(m, base))
	}
}

func TestSlottedPageRejectsOversized(t *testing.T) {
	m := simmem.New()
	base := m.AllocData(PageSize, PageSize)
	InitPage(m, base, 1)
	if _, ok := PageInsert(m, base, make([]byte, PageSize)); ok {
		t.Error("oversized record accepted")
	}
	if _, ok := PageInsert(m, base, nil); ok {
		t.Error("empty record accepted")
	}
}

func TestBufferPoolFixUnfix(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 4)
	id, addr, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if bp.PinCount(id) != 1 {
		t.Errorf("pin count after NewPage = %d", bp.PinCount(id))
	}
	m.WriteU64(addr+100, 0xabcd)
	bp.UnfixAddr(addr, true)

	addr2, err := bp.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 != addr {
		t.Error("resident page moved frames")
	}
	if got := m.ReadU64(addr2 + 100); got != 0xabcd {
		t.Errorf("page content = %#x", got)
	}
	bp.Unfix(id, false)
	if bp.PinCount(id) != 0 {
		t.Errorf("pin count = %d", bp.PinCount(id))
	}
}

func TestBufferPoolEvictionAndReload(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 2)
	var ids []uint64
	for i := 0; i < 4; i++ {
		id, addr, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		m.WriteU64(addr+64, uint64(1000+i))
		bp.UnfixAddr(addr, true)
		ids = append(ids, id)
	}
	if bp.Evictions == 0 {
		t.Fatal("no evictions with 4 pages in 2 frames")
	}
	// Every page must still read back correctly after spilling to disk — and
	// again after the clean copy that came back is evicted a second time.
	for round := 0; round < 2; round++ {
		for i, id := range ids {
			addr, err := bp.Fix(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.ReadU64(addr + 64); got != uint64(1000+i) {
				t.Errorf("round %d: page %d content = %d, want %d", round, id, got, 1000+i)
			}
			if PageID(m, addr) != id {
				t.Errorf("round %d: page %d header lost", round, id)
			}
			bp.Unfix(id, false)
		}
	}
}

// TestBufferPoolFrameOrder pins the frame a new or fetched page lands in: a
// fresh pool hands out frames 0, 1, 2, … in order, a full pool falls through
// to the clock, and the frame an eviction frees is the one reused.
func TestBufferPoolFrameOrder(t *testing.T) {
	m := simmem.New()
	const frames = 5
	bp := NewBufferPool(m, frames)
	var ids []uint64
	for f := 0; f < frames; f++ {
		id, addr, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if addr != bp.FrameAddr(f) {
			t.Fatalf("page %d of a fresh pool landed at %#x, want frame %d", id, addr, f)
		}
		if f != 2 {
			bp.UnfixAddr(addr, true) // frame 2 stays pinned
		}
		ids = append(ids, id)
	}
	if bp.Evictions != 0 {
		t.Fatalf("%d evictions while frames were free", bp.Evictions)
	}
	// Full: the clock hand starts at frame 0 and skips the pinned frame 2.
	// NewPage leaves no reference bit, so each sweep step evicts.
	for _, want := range []int{0, 1, 3, 4, 0} {
		evictions := bp.Evictions
		_, addr, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if addr != bp.FrameAddr(want) || bp.Evictions != evictions+1 {
			t.Fatalf("full pool: new page at %#x after %d evictions, want frame %d after one",
				addr, bp.Evictions-evictions, want)
		}
		bp.UnfixAddr(addr, true)
	}
	// A miss takes the next victim too, and the evicted page's frame is the
	// one the fetched page occupies.
	addr, err := bp.Fix(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if addr != bp.FrameAddr(1) {
		t.Errorf("fetched page at %#x, want the evicted frame 1", addr)
	}
	bp.UnfixAddr(addr, false)
}

func TestBufferPoolAllPinnedFails(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 2)
	for i := 0; i < 2; i++ {
		if _, _, err := bp.NewPage(); err != nil {
			t.Fatal(err)
		}
		// leave pinned
	}
	if _, _, err := bp.NewPage(); err != ErrNoFreeFrame {
		t.Errorf("err = %v, want ErrNoFreeFrame", err)
	}
}

func TestBufferPoolPinUnderflowPanics(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 2)
	id, addr, _ := bp.NewPage()
	bp.UnfixAddr(addr, false)
	defer func() {
		if recover() == nil {
			t.Error("expected pin-underflow panic")
		}
	}()
	bp.Unfix(id, false)
}

// heapField reads one column of the record at rid under a pin of its page,
// the way the engine's row seam reaches a heap record.
func heapField(t *testing.T, h *HeapFile, rid RID, col int) catalog.Value {
	t.Helper()
	base, err := h.FixPage(rid.Page())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := PageRecord(h.m, base, rid.Slot())
	v := h.schema.ReadField(h.m, addr, col)
	h.UnfixPage(rid.Page(), false)
	return v
}

// setHeapField writes one column of the record at rid and unfixes its page
// dirty.
func setHeapField(t *testing.T, h *HeapFile, rid RID, col int, v catalog.Value) {
	t.Helper()
	base, err := h.FixPage(rid.Page())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := PageRecord(h.m, base, rid.Slot())
	h.schema.WriteField(h.m, addr, col, v)
	h.UnfixPage(rid.Page(), true)
}

func TestHeapFileInsertRead(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 64)
	h := NewHeapFile(m, bp, microSchema())
	var rids []RID
	for i := 0; i < 2000; i++ { // spans several pages
		rid, err := h.Insert(catalog.Row{catalog.LongVal(int64(i)), catalog.LongVal(int64(i * 10))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Count() != 2000 {
		t.Errorf("count = %d", h.Count())
	}
	for i, rid := range rids {
		if v := heapField(t, h, rid, 1); v.I != int64(i*10) {
			t.Errorf("row %d val = %d", i, v.I)
		}
	}
}

func TestHeapFileUpdate(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 8)
	h := NewHeapFile(m, bp, microSchema())
	rid, err := h.Insert(catalog.Row{catalog.LongVal(5), catalog.LongVal(50)})
	if err != nil {
		t.Fatal(err)
	}
	setHeapField(t, h, rid, 1, catalog.LongVal(77))
	if v := heapField(t, h, rid, 1); v.I != 77 {
		t.Errorf("val = %d", v.I)
	}
	if k := heapField(t, h, rid, 0); k.I != 5 {
		t.Errorf("key clobbered: %d", k.I)
	}
}

func TestHeapFileNoPinLeaks(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 8)
	h := NewHeapFile(m, bp, microSchema())
	var rids []RID
	for i := 0; i < 1000; i++ {
		rid, err := h.Insert(catalog.Row{catalog.LongVal(int64(i)), catalog.LongVal(0)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, rid := range rids[:100] {
		heapField(t, h, rid, 0)
	}
	for _, rid := range rids {
		if got := bp.PinCount(rid.Page()); got != 0 {
			t.Fatalf("page %d still pinned (%d)", rid.Page(), got)
		}
	}
}

func TestRowStoreInsertReadUpdate(t *testing.T) {
	m := simmem.New()
	rs := NewRowStore(m, microSchema())
	addrs := make([]simmem.Addr, 0, 1000)
	for i := 0; i < 1000; i++ {
		addrs = append(addrs, rs.Insert(catalog.Row{catalog.LongVal(int64(i)), catalog.LongVal(int64(-i))}))
	}
	if rs.Count() != 1000 {
		t.Errorf("count = %d", rs.Count())
	}
	for i, a := range addrs {
		if got := rs.Schema().ReadField(m, a, 1).I; got != int64(-i) {
			t.Errorf("row %d = %d", i, got)
		}
	}
	rs.Schema().WriteField(m, addrs[42], 1, catalog.LongVal(999))
	if got := rs.Schema().ReadField(m, addrs[42], 1).I; got != 999 {
		t.Errorf("update lost: %d", got)
	}
}

func TestRowStoreLineAlignment(t *testing.T) {
	m := simmem.New()
	rs := NewRowStore(m, catalog.NewSchema("w40",
		catalog.Column{Name: "a", Type: catalog.TypeString, Width: 40}))
	for i := 0; i < 100; i++ {
		a := rs.Insert(catalog.Row{catalog.StringVal([]byte("x"))})
		start := uint64(a) & 63
		if start+40 > 64 {
			t.Fatalf("row %d at %#x straddles a cache line", i, a)
		}
	}
}

func TestRIDPackUnpack(t *testing.T) {
	f := func(page uint32, slot uint8) bool {
		rid := NewRID(uint64(page), int(slot))
		return rid.Page() == uint64(page) && rid.Slot() == int(slot)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a heap file with random interleaved inserts/updates matches a
// Go-map reference model.
func TestQuickHeapFileMatchesReference(t *testing.T) {
	m := simmem.New()
	bp := NewBufferPool(m, 256)
	h := NewHeapFile(m, bp, microSchema())
	ref := make(map[RID]int64)
	var rids []RID
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 5000; step++ {
		if len(rids) == 0 || rng.Intn(3) == 0 {
			v := rng.Int63n(1 << 40)
			rid, err := h.Insert(catalog.Row{catalog.LongVal(int64(step)), catalog.LongVal(v)})
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
			ref[rid] = v
		} else {
			rid := rids[rng.Intn(len(rids))]
			v := rng.Int63n(1 << 40)
			setHeapField(t, h, rid, 1, catalog.LongVal(v))
			ref[rid] = v
		}
	}
	for rid, want := range ref {
		if got := heapField(t, h, rid, 1); got.I != want {
			t.Fatalf("rid %v = %d, want %d", rid, got.I, want)
		}
	}
}
