package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
)

// buildIndexes returns one fresh instance of every implementation for the
// given key width.
func buildIndexes(t *testing.T, kw int) map[string]Index {
	t.Helper()
	mk := func() *simmem.Arena { return simmem.New() }
	m1, m2, m3, m4 := mk(), mk(), mk(), mk()
	bp := storage.NewBufferPool(m1, 4096)
	return map[string]Index{
		"btree":  NewBTree(m1, bp, kw),
		"cctree": NewCCTree(m2, kw, 256),
		"hash":   NewHashIndex(m3, kw, 1<<16),
		"art":    NewART(m4, kw),
	}
}

func key8(k uint64) []byte { return catalog.EncodeKeyLong(int64(k)) }

func TestIndexBasicCRUD(t *testing.T) {
	for name, idx := range buildIndexes(t, 8) {
		t.Run(name, func(t *testing.T) {
			if _, ok := idx.Lookup(key8(1)); ok {
				t.Fatal("empty index found a key")
			}
			idx.Insert(key8(1), 100)
			idx.Insert(key8(2), 200)
			idx.Insert(key8(1), 101) // replace
			if idx.Count() != 2 {
				t.Errorf("count = %d, want 2", idx.Count())
			}
			if v, ok := idx.Lookup(key8(1)); !ok || v != 101 {
				t.Errorf("lookup 1 = %d,%v", v, ok)
			}
			if v, ok := idx.Lookup(key8(2)); !ok || v != 200 {
				t.Errorf("lookup 2 = %d,%v", v, ok)
			}
			if !idx.Delete(key8(1)) {
				t.Error("delete existing failed")
			}
			if idx.Delete(key8(1)) {
				t.Error("double delete succeeded")
			}
			if _, ok := idx.Lookup(key8(1)); ok {
				t.Error("deleted key still found")
			}
			if idx.Count() != 1 {
				t.Errorf("count after delete = %d", idx.Count())
			}
		})
	}
}

func TestIndexBulkSequential(t *testing.T) {
	const n = 20000
	for name, idx := range buildIndexes(t, 8) {
		t.Run(name, func(t *testing.T) {
			for i := uint64(0); i < n; i++ {
				idx.Insert(key8(i), i*3)
			}
			if idx.Count() != n {
				t.Fatalf("count = %d", idx.Count())
			}
			for i := uint64(0); i < n; i += 37 {
				v, ok := idx.Lookup(key8(i))
				if !ok || v != i*3 {
					t.Fatalf("lookup %d = %d,%v", i, v, ok)
				}
			}
			if _, ok := idx.Lookup(key8(n + 5)); ok {
				t.Error("found absent key")
			}
		})
	}
}

func TestIndexBulkRandomMatchesReference(t *testing.T) {
	const ops = 30000
	for name, idx := range buildIndexes(t, 8) {
		t.Run(name, func(t *testing.T) {
			ref := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(7))
			for op := 0; op < ops; op++ {
				k := uint64(rng.Intn(8000))
				switch rng.Intn(10) {
				case 0, 1: // delete
					_, inRef := ref[k]
					got := idx.Delete(key8(k))
					if got != inRef {
						t.Fatalf("op %d: delete(%d) = %v, ref %v", op, k, got, inRef)
					}
					delete(ref, k)
				case 2: // lookup
					v, ok := idx.Lookup(key8(k))
					rv, rok := ref[k]
					if ok != rok || (ok && v != rv) {
						t.Fatalf("op %d: lookup(%d) = %d,%v, ref %d,%v", op, k, v, ok, rv, rok)
					}
				default: // insert/replace
					v := rng.Uint64() >> 1
					idx.Insert(key8(k), v)
					ref[k] = v
				}
			}
			if int(idx.Count()) != len(ref) {
				t.Fatalf("count = %d, ref %d", idx.Count(), len(ref))
			}
			for k, rv := range ref {
				v, ok := idx.Lookup(key8(k))
				if !ok || v != rv {
					t.Fatalf("final lookup(%d) = %d,%v, want %d", k, v, ok, rv)
				}
			}
		})
	}
}

func TestIndexWideStringKeys(t *testing.T) {
	const kw = 50
	mkKey := func(i int) []byte {
		b := make([]byte, kw)
		copy(b, fmt.Sprintf("customer-%020d-suffix", i))
		return b
	}
	arenas := []*simmem.Arena{simmem.New(), simmem.New(), simmem.New(), simmem.New()}
	bp := storage.NewBufferPool(arenas[0], 1024)
	idxs := map[string]Index{
		"btree":  NewBTree(arenas[0], bp, kw),
		"cctree": NewCCTree(arenas[1], kw, 256),
		"hash":   NewHashIndex(arenas[2], kw, 1<<12),
		"art":    NewART(arenas[3], kw),
	}
	for name, idx := range idxs {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 3000; i++ {
				idx.Insert(mkKey(i), uint64(i))
			}
			for i := 0; i < 3000; i += 97 {
				v, ok := idx.Lookup(mkKey(i))
				if !ok || v != uint64(i) {
					t.Fatalf("lookup %d = %d,%v", i, v, ok)
				}
			}
		})
	}
}

func orderedIndexes(t *testing.T) map[string]OrderedIndex {
	t.Helper()
	m1, m2, m4 := simmem.New(), simmem.New(), simmem.New()
	bp := storage.NewBufferPool(m1, 4096)
	return map[string]OrderedIndex{
		"btree":  NewBTree(m1, bp, 8),
		"cctree": NewCCTree(m2, 8, 256),
		"art":    NewART(m4, 8),
	}
}

func TestOrderedScan(t *testing.T) {
	for name, idx := range orderedIndexes(t) {
		t.Run(name, func(t *testing.T) {
			keys := []uint64{5, 1, 9, 3, 7, 100, 50, 2, 8, 1000, 999}
			for _, k := range keys {
				idx.Insert(key8(k), k*10)
			}
			sorted := append([]uint64(nil), keys...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

			var got []uint64
			idx.Scan(key8(0), func(k []byte, v uint64) bool {
				got = append(got, uint64(catalog.DecodeKeyLong(k)))
				return true
			})
			if len(got) != len(sorted) {
				t.Fatalf("scan returned %d keys, want %d: %v", len(got), len(sorted), got)
			}
			for i := range got {
				if got[i] != sorted[i] {
					t.Fatalf("scan[%d] = %d, want %d (%v)", i, got[i], sorted[i], got)
				}
			}
		})
	}
}

func TestOrderedScanFromMidAndEarlyStop(t *testing.T) {
	for name, idx := range orderedIndexes(t) {
		t.Run(name, func(t *testing.T) {
			for k := uint64(0); k < 1000; k++ {
				idx.Insert(key8(k*2), k) // even keys only
			}
			var got []uint64
			idx.Scan(key8(501), func(k []byte, v uint64) bool {
				got = append(got, uint64(catalog.DecodeKeyLong(k)))
				return len(got) < 5
			})
			want := []uint64{502, 504, 506, 508, 510}
			if len(got) != len(want) {
				t.Fatalf("got %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("got %v, want %v", got, want)
				}
			}
		})
	}
}

func TestOrderedScanRandomMatchesSortedReference(t *testing.T) {
	for name, idx := range orderedIndexes(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			ref := make(map[uint64]bool)
			for i := 0; i < 5000; i++ {
				k := rng.Uint64() % 1_000_000
				idx.Insert(key8(k), k)
				ref[k] = true
			}
			var want []uint64
			for k := range ref {
				if k >= 300_000 {
					want = append(want, k)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			var got []uint64
			idx.Scan(key8(300_000), func(k []byte, v uint64) bool {
				got = append(got, uint64(catalog.DecodeKeyLong(k)))
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("%s: scan %d keys, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: scan[%d] = %d, want %d", name, i, got[i], want[i])
				}
			}
		})
	}
}

func TestBTreeSplitsAndHeight(t *testing.T) {
	m := simmem.New()
	bp := storage.NewBufferPool(m, 4096)
	bt := NewBTree(m, bp, 8)
	if bt.Height() != 1 {
		t.Fatal("fresh tree height != 1")
	}
	for i := uint64(0); i < 3000; i++ { // > one 8KB leaf (510 entries)
		bt.Insert(key8(i), i)
	}
	if bt.Height() < 2 {
		t.Errorf("height = %d after 3000 inserts, want >= 2", bt.Height())
	}
	for i := uint64(0); i < 3000; i++ {
		if v, ok := bt.Lookup(key8(i)); !ok || v != i {
			t.Fatalf("lookup %d failed after splits", i)
		}
	}
}

func TestBTreeNoPinLeaks(t *testing.T) {
	m := simmem.New()
	bp := storage.NewBufferPool(m, 64)
	bt := NewBTree(m, bp, 8)
	// With only 64 frames, leaked pins would quickly exhaust the pool.
	for i := uint64(0); i < 50000; i++ {
		bt.Insert(key8(i), i)
	}
	for i := uint64(0); i < 50000; i += 111 {
		if _, ok := bt.Lookup(key8(i)); !ok {
			t.Fatalf("lookup %d failed", i)
		}
	}
	if err := bt.check(); err != nil { // no page pinned, among the rest
		t.Fatal(err)
	}
}

// TestAscendingLoadStaysOnAppendPath pins the mechanism of the bulk-append
// fast path: on an untraced tree fed strictly ascending keys only the first
// insert (into the empty tree, no path cached yet) takes insertSlow, however
// many leaf, inner and root splits the load causes; a traced insert and an
// insert below the maximum take it exactly as before.
func TestAscendingLoadStaysOnAppendPath(t *testing.T) {
	for _, cfg := range treeEventConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			const kw, n = 50, 12_000 // the 140-entry page tree splits its root twice by 9871 keys
			m := simmem.New()
			tr := cfg.make(m, kw).(*Tree)
			for i := uint64(0); i < n; i++ {
				tr.Insert(eventKey(kw, 2*i), i)
			}
			if tr.slowInserts != 1 || tr.Height() < 3 {
				t.Fatalf("%d ascending inserts: %d took insertSlow (want 1), height %d (want >= 3)", n, tr.slowInserts, tr.Height())
			}
			tr.Insert(eventKey(kw, 2*n-3), 0) // below the maximum
			tr.Insert(eventKey(kw, 2*n), 0)   // ascending again: the one rebuild, no descent
			m.SetTracer(nopTracer{})
			m.EnableTracing(true)
			tr.Insert(eventKey(kw, 2*n+2), 0) // ascending but traced
			if tr.slowInserts != 3 {
				t.Fatalf("%d inserts took insertSlow, want 3: the first, the out-of-order one and the traced one", tr.slowInserts)
			}
			if err := tr.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSearchStepsMatchesLowerBound holds searchSteps' closed form against the
// loop it stands for: lowerBound's, for a key above every key of the node.
func TestSearchStepsMatchesLowerBound(t *testing.T) {
	for n := 0; n <= 1<<13; n++ {
		steps := 0
		for lo, hi := 0, n; lo < hi; steps++ {
			lo = (lo+hi)/2 + 1
		}
		if got := searchSteps(n); got != steps {
			t.Fatalf("searchSteps(%d) = %d, the search takes %d", n, got, steps)
		}
	}
}

func TestCCTreeNodeSizing(t *testing.T) {
	m := simmem.New()
	// 64-byte nodes with 8-byte keys: header 16 + 2x16 entries = 48 <= 64.
	small := NewCCTree(m, 8, 64)
	if small.NodeSize() != 64 {
		t.Errorf("node size = %d, want 64", small.NodeSize())
	}
	// 50-byte keys cannot fit two entries in 64 bytes: node must grow.
	wide := NewCCTree(m, 50, 64)
	if wide.NodeSize() < 16+2*58 {
		t.Errorf("node size = %d, too small for two 58-byte entries", wide.NodeSize())
	}
	if wide.NodeSize()%64 != 0 {
		t.Errorf("node size = %d, not a line multiple", wide.NodeSize())
	}
}

func TestCCTreeDeepTreeSmallNodes(t *testing.T) {
	m := simmem.New()
	tr := NewCCTree(m, 8, 64)
	const n = 100000
	for i := uint64(0); i < n; i++ {
		tr.Insert(key8(i), i)
	}
	// Fanout is 3-4 with 64-byte nodes, so height must be deep (paper:
	// VoltDB's line-sized nodes trade depth for per-node locality).
	if tr.Height() < 8 {
		t.Errorf("height = %d, expected a deep tree with 64B nodes", tr.Height())
	}
	for i := uint64(0); i < n; i += 997 {
		if v, ok := tr.Lookup(key8(i)); !ok || v != i {
			t.Fatalf("lookup %d failed", i)
		}
	}
}

func TestHashIndexChainsAbsorbOverflow(t *testing.T) {
	m := simmem.New()
	h := NewHashIndex(m, 8, 64) // deliberately undersized directory
	const n = 5000
	for i := uint64(0); i < n; i++ {
		h.Insert(key8(i), i)
	}
	if h.Count() != n {
		t.Fatalf("count = %d", h.Count())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := h.Lookup(key8(i)); !ok || v != i {
			t.Fatalf("lookup %d = %d,%v", i, v, ok)
		}
	}
}

func TestARTNodeGrowth(t *testing.T) {
	m := simmem.New()
	a := NewART(m, 8)
	// 300 keys differing in the last byte +256ths force Node4 -> 16 -> 48 -> 256.
	for i := uint64(0); i < 300; i++ {
		a.Insert(key8(i), i)
	}
	for i := uint64(0); i < 300; i++ {
		if v, ok := a.Lookup(key8(i)); !ok || v != i {
			t.Fatalf("lookup %d after growth = %d,%v", i, v, ok)
		}
	}
}

func TestARTPrefixSplit(t *testing.T) {
	m := simmem.New()
	a := NewART(m, 16)
	k1 := append(bytes.Repeat([]byte{0xaa}, 15), 0x01)
	k2 := append(bytes.Repeat([]byte{0xaa}, 15), 0x02)
	k3 := append(append(bytes.Repeat([]byte{0xaa}, 7), 0xbb), bytes.Repeat([]byte{0}, 8)...)
	a.Insert(k1, 1)
	a.Insert(k2, 2) // shares a 15-byte prefix (> 8 stored bytes)
	a.Insert(k3, 3) // splits the long prefix in the optimistic region
	for i, k := range [][]byte{k1, k2, k3} {
		if v, ok := a.Lookup(k); !ok || v != uint64(i+1) {
			t.Fatalf("lookup k%d = %d,%v", i+1, v, ok)
		}
	}
	if _, ok := a.Lookup(append(bytes.Repeat([]byte{0xaa}, 15), 0x03)); ok {
		t.Error("found absent sibling key")
	}
}

func TestARTDeleteCompactsNode48(t *testing.T) {
	m := simmem.New()
	a := NewART(m, 8)
	// Push a node to Node48 territory then delete from the middle.
	for i := uint64(0); i < 40; i++ {
		a.Insert(key8(i), i)
	}
	for i := uint64(10); i < 20; i++ {
		if !a.Delete(key8(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := uint64(0); i < 40; i++ {
		v, ok := a.Lookup(key8(i))
		if i >= 10 && i < 20 {
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
		} else if !ok || v != i {
			t.Fatalf("survivor %d = %d,%v", i, v, ok)
		}
	}
}

type countingMeter struct{ visits, bytes int }

func (c *countingMeter) NodeVisit(b int) { c.visits++; c.bytes += b }

func TestMeterReceivesWork(t *testing.T) {
	for name, idx := range buildIndexes(t, 8) {
		t.Run(name, func(t *testing.T) {
			for i := uint64(0); i < 1000; i++ {
				idx.Insert(key8(i), i)
			}
			m := &countingMeter{}
			idx.SetMeter(m)
			idx.Lookup(key8(500))
			if m.visits == 0 {
				t.Error("meter saw no node visits for a lookup")
			}
		})
	}
}

func TestIndexPanicsOnWrongKeyWidth(t *testing.T) {
	for name, idx := range buildIndexes(t, 8) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for wrong key width")
				}
			}()
			idx.Insert([]byte{1, 2, 3}, 1)
		})
	}
}
