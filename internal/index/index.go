// Package index defines the index interface shared by the three index
// structures the paper's systems use, in four configurations:
//
//   - tree: one B+-tree over two node stores — NewBTree on 8KB buffer-pool
//     pages (Shore-MT, DBMS D), NewCCTree on cache-line-multiple nodes
//     straight in the arena (VoltDB's small nodes; DBMS M's B-tree variant);
//   - hash: a bucket-chained hash index (DBMS M for micro-benchmarks/TPC-B);
//   - art: an adaptive radix tree (HyPer).
//
// All index state lives in the simulated arena: traversals produce the exact
// data-side cache behaviour the paper attributes to each structure.
package index

import (
	"math/bits"

	"oltpsim/internal/simmem"
)

// Index is a unique-key ordered (except hash) index from fixed-width byte
// keys to 64-bit values (row addresses or RIDs).
type Index interface {
	// Name identifies the implementation for reports.
	Name() string
	// KeyWidth returns the fixed key width in bytes.
	KeyWidth() int
	// Insert adds key -> val, replacing any existing value.
	Insert(key []byte, val uint64)
	// Lookup returns the value for key.
	Lookup(key []byte) (uint64, bool)
	// Delete removes key and reports whether it was present.
	Delete(key []byte) bool
	// Count returns the number of live entries.
	Count() uint64
	// SetMeter attaches a work meter (may be nil).
	SetMeter(Meter)
	// SetArena repoints the index's arena handle. Handles created by
	// simmem.Arena.View share all storage — only tracer attribution changes —
	// so the engine's concurrent mode uses this to charge each partition's
	// index traffic to the core executing that partition.
	SetArena(*simmem.Arena)
}

// OrderedIndex additionally supports ascending range scans.
type OrderedIndex interface {
	Index
	// Scan visits entries with key >= from in ascending key order until fn
	// returns false. The key slice is backed by a per-tree scratch buffer:
	// it is only valid for the duration of the callback (copy to retain),
	// which keeps full-table analytical scans allocation-free.
	Scan(from []byte, fn func(key []byte, val uint64) bool)
}

// Meter receives the computational work of index operations so the engine
// archetypes can charge instruction retire/fetch costs for them. Data-side
// memory traffic needs no meter: it flows through the arena automatically.
type Meter interface {
	// NodeVisit reports that one node/bucket was visited, comparing
	// cmpBytes bytes of key material.
	NodeVisit(cmpBytes int)
}

// nopMeter is used when no meter is attached.
type nopMeter struct{}

func (nopMeter) NodeVisit(int) {}

// meterOrNop normalizes a possibly-nil meter.
func meterOrNop(m Meter) Meter {
	if m == nil {
		return nopMeter{}
	}
	return m
}

// searchSteps returns the number of probe iterations the trees' lowerBound
// performs when the searched key is greater than every key in an n-entry
// node (the bulk-append case: the binary search always moves right, and each
// step takes the remaining r entries to floor((r-1)/2), so r+1 halves until
// it is 1). The bulk-append fast path uses it to issue the exact meter
// charges the full search would have issued.
func searchSteps(n int) int { return bits.Len(uint(n)+1) - 1 }

// keyWord interprets an 8-byte key as its big-endian word; comparing words
// is then exactly bytewise key comparison. Used by the trees' 8-byte-key
// binary-search fast path.
func keyWord(key []byte) uint64 {
	_ = key[7]
	return uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 |
		uint64(key[3])<<32 | uint64(key[4])<<24 | uint64(key[5])<<16 |
		uint64(key[6])<<8 | uint64(key[7])
}
