package index

import (
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
)

// Index micro-benchmarks: wall-clock cost of simulated index operations
// (these bound how fast the experiment harness can run).

const benchKeys = 1 << 17

// benchIndexes are the five index configurations, in the order the rungs
// report them; every call of mk builds a fresh empty index.
var benchIndexes = []struct {
	name string
	mk   func() Index
}{
	{"btree8k", func() Index { m := simmem.New(); return NewBTree(m, storage.NewBufferPool(m, 1<<15), 8) }},
	{"cctree64", func() Index { return NewCCTree(simmem.New(), 8, 64) }},
	{"cctree512", func() Index { return NewCCTree(simmem.New(), 8, 512) }},
	{"hash", func() Index { return NewHashIndex(simmem.New(), 8, benchKeys) }},
	{"art", func() Index { return NewART(simmem.New(), 8) }},
}

// BenchmarkIndexLoadAscending is the rung for load-path work: every round
// loads a fresh untraced index with 2^17 ascending keys, as Table.Load does.
// slow-inserts/row is the share of a tree's inserts that left the appendPath
// fast path for insertSlow: 1 in 2^17 (the first, into the empty tree).
func BenchmarkIndexLoadAscending(b *testing.B) {
	for _, ix := range benchIndexes {
		b.Run(ix.name, func(b *testing.B) {
			key := make([]byte, 8)
			var slow uint64
			for i := 0; i < b.N; i++ {
				idx := ix.mk()
				for k := int64(0); k < benchKeys; k++ {
					catalog.PutKeyLong(key, k)
					idx.Insert(key, uint64(k))
				}
				if tr, ok := idx.(*Tree); ok {
					slow += tr.slowInserts
				}
			}
			rows := float64(b.N) * benchKeys
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			if slow > 0 { // a tree: its first insert always descends
				b.ReportMetric(float64(slow)/rows, "slow-inserts/row")
			}
		})
	}
}

// BenchmarkIndexInsertRandom inserts the benchmark ladder's multiplicative
// key sequence (index.insert_ns_*): 2^16 distinct keys in scattered order,
// then a fresh index, so every insert is new and none is an append.
func BenchmarkIndexInsertRandom(b *testing.B) {
	const keys = 1 << 16
	for _, ix := range benchIndexes {
		b.Run(ix.name, func(b *testing.B) {
			key := make([]byte, 8)
			var idx Index
			for i := 0; i < b.N; i++ {
				if i%keys == 0 {
					idx = ix.mk()
				}
				catalog.PutKeyLong(key, int64(uint32(i%keys)*2654435761%keys))
				idx.Insert(key, uint64(i))
			}
		})
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	for _, ix := range benchIndexes {
		idx := ix.mk()
		for i := uint64(0); i < benchKeys; i++ {
			idx.Insert(key8(i), i)
		}
		b.Run(ix.name, func(b *testing.B) {
			var hits uint64
			for i := 0; i < b.N; i++ {
				k := uint64(i*2654435761) % benchKeys
				if _, ok := idx.Lookup(key8(k)); ok {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		})
	}
}

func BenchmarkOrderedScan100(b *testing.B) {
	m := simmem.New()
	for name, tr := range map[string]OrderedIndex{
		"btree8k":   NewBTree(m, storage.NewBufferPool(m, 1<<12), 8),
		"cctree256": NewCCTree(simmem.New(), 8, 256),
	} {
		for i := uint64(0); i < benchKeys; i++ {
			tr.Insert(key8(i), i)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				tr.Scan(key8(uint64(i)%(benchKeys-200)), func(k []byte, v uint64) bool {
					n++
					return n < 100
				})
			}
		})
	}
}

func BenchmarkKeyEncode(b *testing.B) {
	var sink byte
	for i := 0; i < b.N; i++ {
		sink ^= catalog.EncodeKeyLong(int64(i))[7]
	}
	_ = sink
}
