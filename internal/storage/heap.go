package storage

import (
	"oltpsim/internal/simmem"

	"oltpsim/internal/catalog"
)

// RID identifies a record in a heap file: pageID<<16 | slot.
type RID uint64

// NewRID packs a page ID and slot into a RID.
func NewRID(pageID uint64, slot int) RID { return RID(pageID<<16 | uint64(slot)&0xffff) }

// Page returns the page ID component.
func (r RID) Page() uint64 { return uint64(r) >> 16 }

// Slot returns the slot component.
func (r RID) Slot() int { return int(uint64(r) & 0xffff) }

// HeapFile stores fixed-width rows in slotted pages through a buffer pool —
// the tuple storage of the disk-based archetypes.
type HeapFile struct {
	m      *simmem.Arena
	bp     *BufferPool
	schema *catalog.Schema

	lastPage uint64 // page currently accepting inserts (0 = none)
	count    uint64

	recBuf []byte // reusable record-encoding buffer (single-goroutine)
}

// NewHeapFile creates an empty heap file backed by bp.
func NewHeapFile(m *simmem.Arena, bp *BufferPool, schema *catalog.Schema) *HeapFile {
	return &HeapFile{m: m, bp: bp, schema: schema}
}

// Schema returns the heap file's schema.
func (h *HeapFile) Schema() *catalog.Schema { return h.schema }

// Count returns the number of rows inserted.
func (h *HeapFile) Count() uint64 { return h.count }

// Insert appends row and returns its RID.
func (h *HeapFile) Insert(row catalog.Row) (RID, error) {
	if cap(h.recBuf) < h.schema.RowSize() { //oltpsim:coldpath record buffer grows to the row size once
		h.recBuf = make([]byte, h.schema.RowSize())
	}
	rec := h.recBuf[:h.schema.RowSize()]
	// Encode through a scratch page region so the final copy into the page is
	// the only traced write of the tuple bytes.
	encodeRow(h.schema, row, rec)

	if h.lastPage != 0 {
		base, err := h.bp.Fix(h.lastPage)
		if err != nil {
			return 0, err
		}
		if slot, ok := PageInsert(h.m, base, rec); ok {
			h.count++
			rid := NewRID(h.lastPage, slot)
			h.bp.UnfixAddr(base, true)
			return rid, nil
		}
		h.bp.UnfixAddr(base, false)
	}
	pageID, base, err := h.bp.NewPage()
	if err != nil {
		return 0, err
	}
	slot, ok := PageInsert(h.m, base, rec)
	if !ok {
		h.bp.UnfixAddr(base, false)
		panic("storage: row does not fit an empty page")
	}
	h.lastPage = pageID
	h.count++
	h.bp.UnfixAddr(base, true)
	return NewRID(pageID, slot), nil
}

// FixPage pins a whole page and returns its frame base address; record
// addresses within the page come from PageRecord. A sequential scan holds its
// current page across consecutive records (one latch per page, like a real
// executor) instead of re-probing the buffer pool per record; a point access
// pins the page of its one record.
func (h *HeapFile) FixPage(pageID uint64) (simmem.Addr, error) {
	return h.bp.Fix(pageID)
}

// UnfixPage releases the pin taken by FixPage, marking the page dirty when
// the holder wrote to it.
func (h *HeapFile) UnfixPage(pageID uint64, dirtied bool) {
	h.bp.Unfix(pageID, dirtied)
}

// encodeRow serializes row into buf (no arena traffic).
func encodeRow(s *catalog.Schema, row catalog.Row, buf []byte) {
	for i, c := range s.Columns {
		off := s.Offset(i)
		switch c.Type {
		case catalog.TypeLong:
			v := uint64(row[i].I)
			b := buf[off : off+8 : off+8]
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		case catalog.TypeString:
			n := copy(buf[off:off+c.Width], row[i].S)
			for ; n < c.Width; n++ {
				buf[off+n] = 0
			}
		}
	}
}
