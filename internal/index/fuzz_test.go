package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
)

// check walks the whole tree and returns the first structural violation:
// keys strictly ascending within a node, every separator bounding its
// subtrees (keys equal to it on the right), all leaves at depth Height(), the
// leaf chain equal to the in-order walk, Count() equal to the number of live
// entries and — pooled — no page left pinned.
func (t *Tree) check() error {
	var leaves, nodes []uint64
	entries := uint64(0)
	var walk func(ref uint64, depth int, lo, hi []byte) error
	walk = func(ref uint64, depth int, lo, hi []byte) error {
		nodes = append(nodes, ref)
		addr := t.fix(ref)
		leaf, n := t.isLeaf(addr), t.nKeys(addr)
		keys := make([][]byte, n)
		refs := []uint64{t.m.ReadU64(addr + 8)} // leaf: sibling; inner: leftmost child
		for i := range keys {
			keys[i] = append([]byte(nil), t.keyAt(addr, i, t.kbuf)...)
			refs = append(refs, t.valAt(addr, i))
		}
		t.unfix(addr, false)
		if n > t.cap {
			return fmt.Errorf("node %#x holds %d entries, capacity %d", ref, n, t.cap)
		}
		for i, k := range keys {
			if i > 0 && bytes.Compare(keys[i-1], k) >= 0 {
				return fmt.Errorf("node %#x: key %d not above key %d", ref, i, i-1)
			}
			if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
				return fmt.Errorf("node %#x: key %d outside its separators", ref, i)
			}
		}
		if leaf != (depth == t.height) {
			return fmt.Errorf("node %#x: leaf=%v at depth %d of a tree of height %d", ref, leaf, depth, t.height)
		}
		if leaf {
			leaves = append(leaves, ref)
			entries += uint64(n)
			return nil
		}
		for i, child := range refs {
			clo, chi := lo, hi
			if i > 0 {
				clo = keys[i-1]
			}
			if i < n {
				chi = keys[i]
			}
			if err := walk(child, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if entries != t.count {
		return fmt.Errorf("Count() = %d, the leaves hold %d entries", t.count, entries)
	}
	ref := leaves[0]
	for i, want := range leaves {
		if ref != want {
			return fmt.Errorf("leaf chain: leaf %d is %#x, the in-order walk has %#x", i, ref, want)
		}
		addr := t.fix(ref)
		ref = t.m.ReadU64(addr + 8)
		t.unfix(addr, false)
	}
	if ref != 0 {
		return fmt.Errorf("leaf chain runs on to %#x past the last leaf", ref)
	}
	for _, id := range nodes {
		if t.bp != nil && t.bp.PinCount(id) != 0 {
			return fmt.Errorf("page %d left with %d pins", id, t.bp.PinCount(id))
		}
	}
	return nil
}

// fuzzTrees are the differential subjects: the pooled tree on a pool so small
// that every operation evicts, with keys so wide that a page holds 31 of them
// and a few thousand keys split inner pages; and both direct node sizes, one
// on the 8-byte-key search path, one on the general one.
func fuzzTrees() []*Tree {
	m := simmem.New()
	return []*Tree{
		NewBTree(m, storage.NewBufferPool(m, 8), 255),
		NewCCTree(simmem.New(), 8, 64),
		NewCCTree(simmem.New(), 50, 512),
	}
}

// treeKey encodes key number id at the tree's width (order-preserving: zero
// padding, then the number big-endian).
func treeKey(t *Tree, id uint64) []byte {
	k := make([]byte, t.kw)
	binary.BigEndian.PutUint64(k[t.kw-8:], id)
	return k
}

// Fuzz operations are 4 bytes: a selector and a 24-bit key number.
const (
	fzDelete = 0
	fzLookup = 2
	fzScan   = 3 // limit = selector>>3, 0 = to the end
	fzInsert = 4
)

func fuzzOp(sel byte, key uint64) []byte {
	return []byte{sel, byte(key >> 16), byte(key >> 8), byte(key)}
}

type fzEntry struct{ key, val uint64 }

// FuzzTree applies one decoded operation sequence to every tree of fuzzTrees
// and to a sorted-slice oracle; after every operation all agree on its
// result, and at the end every tree passes check.
func FuzzTree(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{fuzzOp(fzInsert, 5), fuzzOp(fzInsert, 5), fuzzOp(fzLookup, 5),
		fuzzOp(fzScan, 0), fuzzOp(fzDelete, 5), fuzzOp(fzDelete, 5), fuzzOp(fzScan|8, 9)}, nil))
	// TestIndexBulkRandomMatchesReference's sequence.
	rng := rand.New(rand.NewSource(7))
	var seed []byte
	for op := 0; op < 30000; op++ {
		k := uint64(rng.Intn(8000))
		switch rng.Intn(10) {
		case 0, 1:
			seed = append(seed, fuzzOp(fzDelete, k)...)
		case 2:
			seed = append(seed, fuzzOp(fzLookup, k)...)
		default:
			seed = append(seed, fuzzOp(fzInsert, k)...)
		}
	}
	f.Add(seed)
	// TestOrderedScanRandomMatchesSortedReference's: 5000 keys, then a scan
	// from 300,000 to the end (and bounded ones from elsewhere).
	rng = rand.New(rand.NewSource(13))
	seed = nil
	for i := 0; i < 5000; i++ {
		seed = append(seed, fuzzOp(fzInsert, rng.Uint64()%1_000_000)...)
	}
	seed = append(seed, fuzzOp(fzScan, 300_000)...)
	seed = append(seed, fuzzOp(fzScan|31<<3, 0)...)
	seed = append(seed, fuzzOp(fzScan|7<<3, 999_990)...)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		trees := fuzzTrees()
		var ref []fzEntry // the oracle, sorted by key
		for op := 0; op+4 <= len(data); op += 4 {
			sel := data[op]
			k := uint64(data[op+1])<<16 | uint64(data[op+2])<<8 | uint64(data[op+3])
			at := sort.Search(len(ref), func(i int) bool { return ref[i].key >= k })
			present := at < len(ref) && ref[at].key == k
			switch sel % 8 {
			case fzDelete, fzDelete + 1:
				for _, tr := range trees {
					if got := tr.Delete(treeKey(tr, k)); got != present {
						t.Fatalf("op %d: %s delete(%d) = %v, oracle %v", op/4, tr.Name(), k, got, present)
					}
				}
				if present {
					ref = append(ref[:at], ref[at+1:]...)
				}
			case fzLookup:
				for _, tr := range trees {
					v, ok := tr.Lookup(treeKey(tr, k))
					if ok != present || (ok && v != ref[at].val) {
						t.Fatalf("op %d: %s lookup(%d) = %d,%v, oracle present=%v", op/4, tr.Name(), k, v, ok, present)
					}
				}
			case fzScan:
				want, limit := ref[at:], int(sel>>3)
				if limit > 0 && limit < len(want) {
					want = want[:limit]
				}
				for _, tr := range trees {
					i := 0
					tr.Scan(treeKey(tr, k), func(key []byte, v uint64) bool {
						if i >= len(want) || binary.BigEndian.Uint64(key[tr.kw-8:]) != want[i].key || v != want[i].val {
							t.Fatalf("op %d: %s scan(%d) entry %d = %x,%d, oracle has %d entries", op/4, tr.Name(), k, i, key, v, len(want))
						}
						i++
						return i != limit // an unreached limit runs off the end of the chain
					})
					if i != len(want) {
						t.Fatalf("op %d: %s scan(%d) visited %d entries, oracle %d", op/4, tr.Name(), k, i, len(want))
					}
				}
			default:
				v := uint64(op)
				for _, tr := range trees {
					tr.Insert(treeKey(tr, k), v)
				}
				if present {
					ref[at].val = v
				} else {
					ref = append(ref, fzEntry{})
					copy(ref[at+1:], ref[at:])
					ref[at] = fzEntry{k, v}
				}
			}
		}
		for _, tr := range trees {
			if int(tr.Count()) != len(ref) {
				t.Fatalf("%s: count %d, oracle %d", tr.Name(), tr.Count(), len(ref))
			}
			if err := tr.check(); err != nil {
				t.Fatalf("%s: %v", tr.Name(), err)
			}
		}
	})
}
