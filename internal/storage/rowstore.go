package storage

import (
	"oltpsim/internal/simmem"

	"oltpsim/internal/catalog"
)

// RowStore is the in-memory archetypes' tuple storage: rows are appended to
// arena segments with cache-line-aware placement (a row of 64 bytes or less
// never straddles a line), which is the "cache-conscious data layout" the
// paper attributes to memory-optimized engines.
type RowStore struct {
	m       *simmem.Arena
	schema  *catalog.Schema
	rowSize int
	count   uint64

	segment    simmem.Addr
	segmentOff int
	segmentCap int
}

// rowStoreSegment is the allocation unit; rows within a segment are
// contiguous, which matches the slab allocation of real in-memory engines.
const rowStoreSegment = 1 << 20

// NewRowStore creates a row store for the given schema.
// SetArena repoints the store's arena handle (a View sharing all storage);
// see index.Index.SetArena for why the engine's concurrent mode does this.
func (rs *RowStore) SetArena(m *simmem.Arena) { rs.m = m }

func NewRowStore(m *simmem.Arena, schema *catalog.Schema) *RowStore {
	return &RowStore{m: m, schema: schema, rowSize: schema.RowSize()}
}

// Schema returns the row store's schema.
func (rs *RowStore) Schema() *catalog.Schema { return rs.schema }

// Count returns the number of rows inserted.
func (rs *RowStore) Count() uint64 { return rs.count }

// Insert appends row and returns its address, which is stable for the life
// of the store.
func (rs *RowStore) Insert(row catalog.Row) simmem.Addr {
	addr := rs.alloc()
	rs.schema.WriteRow(rs.m, addr, row)
	rs.count++
	return addr
}

// alloc reserves space for one row with line-aware padding.
func (rs *RowStore) alloc() simmem.Addr {
	need := rs.rowSize
	if rs.segment == 0 || rs.segmentOff+need > rs.segmentCap {
		rs.segment = rs.m.AllocData(rowStoreSegment, 64)
		rs.segmentOff = 0
		rs.segmentCap = rowStoreSegment
	}
	off := rs.segmentOff
	if need <= 64 {
		// Avoid straddling a cache line.
		lineOff := off & 63
		if lineOff+need > 64 {
			off = (off + 63) &^ 63
		}
	}
	rs.segmentOff = off + need
	return rs.segment + simmem.Addr(off)
}
