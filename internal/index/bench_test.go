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

func benchIndexes(b *testing.B) map[string]Index {
	b.Helper()
	m := simmem.New()
	return map[string]Index{
		"btree8k":   NewBTree(m, storage.NewBufferPool(m, 1<<15), 8),
		"cctree64":  NewCCTree(simmem.New(), 8, 64),
		"cctree512": NewCCTree(simmem.New(), 8, 512),
		"hash":      NewHashIndex(simmem.New(), 8, benchKeys),
		"art":       NewART(simmem.New(), 8),
	}
}

func BenchmarkIndexInsert(b *testing.B) {
	for name, idx := range benchIndexes(b) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := uint64(i) % (benchKeys * 4)
				idx.Insert(key8(k), k)
			}
		})
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	for name, idx := range benchIndexes(b) {
		for i := uint64(0); i < benchKeys; i++ {
			idx.Insert(key8(i), i)
		}
		b.Run(name, func(b *testing.B) {
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
