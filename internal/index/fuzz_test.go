package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
// on the 8-byte-key search path, one on the general one. Each comes as twins
// at indexes 2i and 2i+1: the first untraced, so ascending inserts take the
// appendPath fast path, the second on an arena tracing into a no-op tracer,
// where every insert takes insertSlow. Both record their meter charges.
func fuzzTrees() []*Tree {
	var trees []*Tree
	for _, mk := range []func(m *simmem.Arena) *Tree{
		func(m *simmem.Arena) *Tree { return NewBTree(m, storage.NewBufferPool(m, 8), 255) },
		func(m *simmem.Arena) *Tree { return NewCCTree(m, 8, 64) },
		func(m *simmem.Arena) *Tree { return NewCCTree(m, 50, 512) },
	} {
		for _, traced := range []bool{false, true} {
			m := simmem.New()
			if traced {
				m.SetTracer(nopTracer{})
				m.EnableTracing(true)
			}
			tr := mk(m)
			tr.SetMeter(&eventRecorder{h: fnv.New64a()})
			trees = append(trees, tr)
		}
	}
	return trees
}

type nopTracer struct{}

func (nopTracer) OnData(simmem.Addr, int, bool) {}

// twinsDiffer returns the first difference between an untraced tree and its
// traced twin after the same operation sequence: shape, every meter charge in
// order, every arena byte (nodes, and for the pooled pair the frames and the
// page table — which frame the clock evicted depends on the order of fixes
// and unfixes) and the pool's statistics. The fast path may differ from the
// full descent in nothing but the reads it skips.
func twinsDiffer(fast, slow *Tree) error {
	if fast.root != slow.root || fast.height != slow.height || fast.count != slow.count {
		return fmt.Errorf("root %#x height %d count %d, traced twin %#x %d %d",
			fast.root, fast.height, fast.count, slow.root, slow.height, slow.count)
	}
	fm, sm := fast.meter.(*eventRecorder), slow.meter.(*eventRecorder)
	if fm.n != sm.n || fm.h.Sum64() != sm.h.Sum64() {
		return fmt.Errorf("%d meter charges hashing to %016x, traced twin %d to %016x", fm.n, fm.h.Sum64(), sm.n, sm.h.Sum64())
	}
	if fast.m.DataTop() != slow.m.DataTop() {
		return fmt.Errorf("data top %#x, traced twin %#x", fast.m.DataTop(), slow.m.DataTop())
	}
	image := func(m *simmem.Arena) map[simmem.Addr][]byte {
		pages := map[simmem.Addr][]byte{}
		m.EachPage(func(base simmem.Addr, data []byte) { pages[base] = data })
		return pages
	}
	fi, si := image(fast.m), image(slow.m)
	for base, data := range fi {
		if !bytes.Equal(data, si[base]) {
			return fmt.Errorf("arena page %#x differs from the traced twin's", base)
		}
	}
	if len(fi) != len(si) {
		return fmt.Errorf("%d arena pages materialized, traced twin %d", len(fi), len(si))
	}
	if fp, sp := fast.bp, slow.bp; fp != nil && (fp.Hits != sp.Hits || fp.Misses != sp.Misses || fp.Evictions != sp.Evictions) {
		return fmt.Errorf("pool hits/misses/evictions %d/%d/%d, traced twin %d/%d/%d",
			fp.Hits, fp.Misses, fp.Evictions, sp.Hits, sp.Misses, sp.Evictions)
	}
	return nil
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
// result, and at the end every tree passes check and no untraced tree differs
// from its traced twin (twinsDiffer).
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
	// Long ascending runs — the appendPath fast path through leaf, inner and
	// root splits, 8400 keys in all — each followed by something that does or
	// does not invalidate the cached path.
	rng = rand.New(rand.NewSource(23))
	seed = nil
	next := uint64(1)
	for round := 0; round < 12; round++ {
		for i := 0; i < 700; i++ {
			seed = append(seed, fuzzOp(fzInsert, next)...)
			next += 1 + uint64(rng.Intn(3))
			if i%25 == 24 { // reads leave the path valid and, on 8 frames, evict its pages
				seed = append(seed, fuzzOp(fzLookup, uint64(rng.Intn(int(next))))...)
				seed = append(seed, fuzzOp(fzLookup, uint64(rng.Intn(int(next))))...)
			}
		}
		switch round % 4 {
		case 0: // the maximum and keys near it go: the next append is above a shrunken leaf
			for back := uint64(1); back <= 12; back++ {
				seed = append(seed, fuzzOp(fzDelete, next-back)...)
			}
		case 1:
			seed = append(seed, fuzzOp(fzInsert, next-1-uint64(rng.Intn(3)))...) // replace or insert just below the maximum
		case 2:
			for i := 0; i < 40; i++ {
				seed = append(seed, fuzzOp(fzInsert, uint64(rng.Intn(int(next))))...) // out of order
			}
		case 3:
			seed = append(seed, fuzzOp(fzScan|31<<3, next-20)...)
		}
	}
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
		for i := 0; i < len(trees); i += 2 {
			if err := twinsDiffer(trees[i], trees[i+1]); err != nil {
				t.Fatalf("%s: %v", trees[i].Name(), err)
			}
		}
	})
}
