package index

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
)

// Tree is the B+-tree of the paper's tree-indexed systems. They differ in two
// properties, and both are data here: the node size, and whether a node visit
// goes through a buffer pool.
//
//   - NewBTree: the disk-style tree of the disk-based archetypes ("DBMS D uses
//     a traditional B-tree with page size of 8KB", Shore-MT a
//     non-cache-conscious B-tree). Nodes are 8KB buffer-pool pages and node
//     references are page IDs, so every node visit pays a fix (a page-table
//     probe in the arena) plus a binary search whose key reads touch several
//     cache lines of the page — which is why the paper sees high long-latency
//     data stalls for these systems on large tables.
//   - NewCCTree: the cache-conscious tree of the in-memory archetypes. Nodes
//     are small multiples of the cache-line size, allocated line-aligned
//     straight from the arena, and node references are their addresses (no
//     buffer pool, no page table). VoltDB's tree ("node size tuned to the
//     last-level cache line size", per the paper) uses the smallest nodes,
//     DBMS M's cache-conscious B-tree variant a few lines per node.
//
// Node layout:
//
//	off 0: type (1: 0=leaf, 1=inner) | pad (1) | nKeys (2, LE) | pad (4)
//	off 8: leaf: right-sibling reference; inner: leftmost-child reference
//	off 16: entries: key (keyWidth bytes) + 8-byte value/child reference
//
// Deletion is lazy (no rebalancing/merging), a common storage-manager
// simplification; underfull nodes remain valid.
type Tree struct {
	m     *simmem.Arena
	bp    *storage.BufferPool // nil: node references are arena addresses
	meter Meter
	name  string

	kw       int
	esize    int
	nodeSize int
	cap      int

	root   uint64
	height int
	count  uint64

	// Reusable per-tree scratch buffers for the hot paths. The tree is
	// single-goroutine (like the engine that owns it) and each buffer's use
	// is confined to one call frame, so operations never allocate:
	// kbuf holds the key read back in lowerBound's binary search, sepBuf the
	// separator during a split, and moveBuf entry blocks for shifts/splits.
	kbuf    []byte
	sepBuf  []byte
	moveBuf []byte
	scanBuf []byte // Scan's callback key (valid only during the callback)

	fa appendPath // bulk-append fast path (untraced ascending loads)

	slowInserts uint64 // Inserts that took insertSlow; read by tests and the load rung
}

// appendPath caches the rightmost root-to-leaf path (node references and the
// entry count of each node) plus the current maximum key. While the arena is
// untraced — bulk population — an insert of a key greater than maxKey never
// leaves that path, splits included: the descent reads have no observable
// effect (no trace events, quiet meter charges are reproduced exactly), so
// the fast path skips them and performs only the splits, writes, page fixes
// and counter updates the normal path would perform, in its order, keeping
// the cached path current as it goes. Any other mutation invalidates the
// cache; it is rebuilt with read-only probes.
type appendPath struct {
	valid  bool
	refs   []uint64 // root..leaf
	ns     []int    // entry count per path node
	maxKey []byte
}

const treeHdr = 16

// NewBTree creates an empty B+-tree of 8KB buffer-pool pages for fixed
// keyWidth-byte keys.
func NewBTree(m *simmem.Arena, bp *storage.BufferPool, keyWidth int) *Tree {
	return newTree(m, bp, keyWidth, storage.PageSize, "btree8k")
}

// NewCCTree creates an empty cache-conscious B+-tree with the given node
// size (rounded up to a cache-line multiple and to hold at least two
// entries).
func NewCCTree(m *simmem.Arena, keyWidth, nodeSize int) *Tree {
	nodeSize = (max(nodeSize, treeHdr+2*(keyWidth+8)) + 63) &^ 63
	return newTree(m, nil, keyWidth, nodeSize, fmt.Sprintf("cctree%d", nodeSize))
}

func newTree(m *simmem.Arena, bp *storage.BufferPool, keyWidth, nodeSize int, name string) *Tree {
	if keyWidth <= 0 || keyWidth > 256 {
		panic(fmt.Sprintf("index: %s key width %d", name, keyWidth))
	}
	t := &Tree{m: m, bp: bp, meter: nopMeter{}, name: name,
		kw: keyWidth, esize: keyWidth + 8, nodeSize: nodeSize, height: 1}
	t.cap = (nodeSize - treeHdr) / t.esize
	t.kbuf = make([]byte, keyWidth)
	t.sepBuf = make([]byte, keyWidth)
	t.moveBuf = make([]byte, nodeSize)
	t.scanBuf = make([]byte, keyWidth)
	root, addr := t.newNode()
	t.initNode(addr, true)
	t.unfix(addr, true)
	t.root = root
	return t
}

// Name implements Index.
func (t *Tree) Name() string { return t.name }

// KeyWidth implements Index.
func (t *Tree) KeyWidth() int { return t.kw }

// Count implements Index.
func (t *Tree) Count() uint64 { return t.count }

// SetMeter implements Index.
func (t *Tree) SetMeter(m Meter) { t.meter = meterOrNop(m) }

// SetArena implements Index.SetArena.
func (t *Tree) SetArena(m *simmem.Arena) { t.m = m }

// Height returns the number of levels (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// NodeSize returns the node size in bytes.
func (t *Tree) NodeSize() int { return t.nodeSize }

// fix resolves a node reference to the node's address and, for a pooled
// tree, pins its page there; every fix is paired with one unfix of the
// address. For a direct tree both are a nil check and nothing else (the
// pooled half lives out of line so they inline into the descents).
func (t *Tree) fix(ref uint64) simmem.Addr {
	if t.bp == nil {
		return simmem.Addr(ref)
	}
	return t.fixPage(ref)
}

//go:noinline
func (t *Tree) fixPage(ref uint64) simmem.Addr {
	addr, err := t.bp.Fix(ref)
	if err != nil {
		panic(err)
	}
	return addr
}

func (t *Tree) unfix(addr simmem.Addr, dirtied bool) {
	if t.bp != nil {
		t.bp.UnfixAddr(addr, dirtied)
	}
}

// newNode allocates an unformatted node and returns its reference and its
// (for a pooled tree: fixed) address.
func (t *Tree) newNode() (uint64, simmem.Addr) {
	if t.bp == nil {
		addr := t.m.AllocData(t.nodeSize, 64)
		return uint64(addr), addr
	}
	id, addr, err := t.bp.NewPage()
	if err != nil {
		panic(err)
	}
	return id, addr
}

func (t *Tree) initNode(addr simmem.Addr, leaf bool) {
	var ty uint64 = 1
	if leaf {
		ty = 0
	}
	t.m.WriteU64(addr, ty) // type + zero nKeys in one word
	t.m.WriteU64(addr+8, 0)
}

func (t *Tree) isLeaf(addr simmem.Addr) bool { return t.m.ReadU32(addr)&0xff == 0 }

func (t *Tree) nKeys(addr simmem.Addr) int { return int(t.m.ReadU32(addr) >> 16) }

func (t *Tree) setNKeys(addr simmem.Addr, n int) {
	w := t.m.ReadU32(addr)
	t.m.WriteU32(addr, w&0xffff|uint32(n)<<16)
}

func (t *Tree) entry(addr simmem.Addr, i int) simmem.Addr {
	return addr + treeHdr + simmem.Addr(i*t.esize)
}

func (t *Tree) keyAt(addr simmem.Addr, i int, buf []byte) []byte {
	t.m.ReadBytes(t.entry(addr, i), buf[:t.kw])
	return buf[:t.kw]
}

func (t *Tree) valAt(addr simmem.Addr, i int) uint64 {
	return t.m.ReadU64(t.entry(addr, i) + simmem.Addr(t.kw))
}

func (t *Tree) setValAt(addr simmem.Addr, i int, v uint64) {
	t.m.WriteU64(t.entry(addr, i)+simmem.Addr(t.kw), v)
}

// lowerBound returns the first index whose key >= key, and whether an exact
// match exists, charging the meter for the comparisons performed.
func (t *Tree) lowerBound(addr simmem.Addr, n int, key []byte) (int, bool) {
	lo, hi := 0, n
	cmpBytes := 0
	found := false
	if t.kw == 8 {
		// 8-byte keys (the common Long key) compare as big-endian words: one
		// ReadU64 per step emits the identical trace event to ReadBytes of 8
		// bytes, so the simulated cache behavior is unchanged.
		want := keyWord(key)
		for lo < hi {
			mid := (lo + hi) / 2
			cmpBytes += 8
			got := bits.ReverseBytes64(t.m.ReadU64(t.entry(addr, mid)))
			switch {
			case got < want:
				lo = mid + 1
			case got > want:
				hi = mid
			default:
				found = true
				hi = mid
			}
		}
		t.meter.NodeVisit(cmpBytes)
		return lo, found
	}
	scratch := t.kbuf
	for lo < hi {
		mid := (lo + hi) / 2
		cmpBytes += t.kw
		c := bytes.Compare(t.keyAt(addr, mid, scratch), key)
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			found = true
			hi = mid
		}
	}
	t.meter.NodeVisit(cmpBytes)
	return lo, found
}

// childFor returns the reference of the child to follow for key in inner
// node addr.
func (t *Tree) childFor(addr simmem.Addr, key []byte) uint64 {
	n := t.nKeys(addr)
	lb, found := t.lowerBound(addr, n, key)
	i := lb - 1
	if found {
		i = lb // keys equal to a separator live in the right subtree
	}
	if i < 0 {
		return t.m.ReadU64(addr + 8)
	}
	return t.valAt(addr, i)
}

// descend walks from the root to the leaf responsible for key, holding one
// node at a time, and returns the leaf's fixed address.
func (t *Tree) descend(key []byte) simmem.Addr {
	ref := t.root
	for level := 0; level < t.height-1; level++ {
		addr := t.fix(ref)
		ref = t.childFor(addr, key)
		t.unfix(addr, false)
	}
	return t.fix(ref)
}

// Lookup implements Index.
func (t *Tree) Lookup(key []byte) (uint64, bool) {
	t.checkKey(key)
	addr := t.descend(key)
	n := t.nKeys(addr)
	lb, found := t.lowerBound(addr, n, key)
	var val uint64
	if found {
		val = t.valAt(addr, lb)
	}
	t.unfix(addr, false)
	return val, found
}

// Insert implements Index. Descent splits full children preemptively so a
// parent always has room for a separator.
func (t *Tree) Insert(key []byte, val uint64) {
	t.checkKey(key)
	if t.tryFastAppend(key, val) {
		return
	}
	t.fa.valid = false
	t.slowInserts++
	t.insertSlow(key, val)
	t.rebuildAppendPath()
}

// tryFastAppend performs the untraced ascending-load append (see appendPath):
// same splits, same page fixes, same meter charges, same writes as
// insertSlow in the same order — minus the descent's unobservable reads.
func (t *Tree) tryFastAppend(key []byte, val uint64) bool {
	fa := &t.fa
	if !fa.valid || t.m.Tracing() || bytes.Compare(key, fa.maxKey) <= 0 {
		return false
	}
	cur := t.fix(fa.refs[0])
	if fa.ns[0] >= t.cap {
		// The old root's right half takes its place on the path, below the
		// new root and its one separator.
		cur, fa.refs[0], fa.ns[0] = t.splitRoot(cur)
		fa.refs = slices.Insert(fa.refs, 0, t.root)
		fa.ns = slices.Insert(fa.ns, 0, 1)
	}
	for lvl := 0; lvl+1 < len(fa.refs); lvl++ {
		t.meter.NodeVisit(t.kw * searchSteps(fa.ns[lvl])) // childFor's search
		child := t.fix(fa.refs[lvl+1])
		if fa.ns[lvl+1] >= t.cap {
			fa.refs[lvl+1], fa.ns[lvl+1] = t.splitChild(cur, child)
			t.unfix(child, true)
			fa.ns[lvl]++
			t.meter.NodeVisit(t.kw * searchSteps(fa.ns[lvl])) // re-choose: the key is above the separator
			child = t.fix(fa.refs[lvl+1])
		}
		t.unfix(cur, true)
		cur = child
	}
	n := fa.ns[len(fa.ns)-1]
	t.meter.NodeVisit(t.kw * searchSteps(n)) // leaf search
	t.m.WriteBytes(t.entry(cur, n), key)
	t.setValAt(cur, n, val)
	t.setNKeys(cur, n+1)
	t.count++
	t.unfix(cur, true)
	fa.ns[len(fa.ns)-1] = n + 1
	fa.maxKey = append(fa.maxKey[:0], key...)
	return true
}

// rebuildAppendPath re-derives the rightmost path with read-only probes (no
// pins, no hit/reference updates). Only meaningful while untraced.
func (t *Tree) rebuildAppendPath() {
	fa := &t.fa
	fa.valid = false
	if t.m.Tracing() {
		return
	}
	fa.refs = fa.refs[:0]
	fa.ns = fa.ns[:0]
	ref := t.root
	for lvl := 0; lvl < t.height; lvl++ {
		addr := simmem.Addr(ref)
		if t.bp != nil {
			var ok bool
			if addr, ok = t.bp.Peek(ref); !ok {
				return // page not resident; stay on the full descent
			}
		}
		n := t.nKeys(addr)
		fa.refs = append(fa.refs, ref)
		fa.ns = append(fa.ns, n)
		if lvl == t.height-1 {
			if n == 0 {
				return // empty leaf: no maximum to append after
			}
			fa.maxKey = append(fa.maxKey[:0], t.keyAt(addr, n-1, t.kbuf)...)
			fa.valid = true
			return
		}
		if n == 0 {
			ref = t.m.ReadU64(addr + 8)
		} else {
			ref = t.valAt(addr, n-1)
		}
	}
}

// insertSlow is the full descent. Unlike descend it holds the parent until
// the child is fixed: a split writes into both.
func (t *Tree) insertSlow(key []byte, val uint64) {
	cur := t.fix(t.root)
	if t.nKeys(cur) >= t.cap {
		cur, _, _ = t.splitRoot(cur)
	}
	for !t.isLeaf(cur) {
		child := t.fix(t.childFor(cur, key))
		if t.nKeys(child) >= t.cap {
			t.splitChild(cur, child)
			t.unfix(child, true)
			child = t.fix(t.childFor(cur, key)) // re-choose: the separator may send us right
		}
		t.unfix(cur, true)
		cur = child
	}
	n := t.nKeys(cur)
	lb, found := t.lowerBound(cur, n, key)
	if found {
		t.setValAt(cur, lb, val)
	} else {
		t.shiftRight(cur, lb, n)
		t.m.WriteBytes(t.entry(cur, lb), key)
		t.setValAt(cur, lb, val)
		t.setNKeys(cur, n+1)
		t.count++
	}
	t.unfix(cur, true)
}

// splitRoot splits the full root, fixed at cur, under a new root (allocated
// before the right sibling) and returns the new root's fixed address in cur's
// place, plus what splitChild returns.
func (t *Tree) splitRoot(cur simmem.Addr) (simmem.Addr, uint64, int) {
	newRoot, newRootAddr := t.newNode()
	t.initNode(newRootAddr, false)
	t.m.WriteU64(newRootAddr+8, t.root)
	right, rn := t.splitChild(newRootAddr, cur)
	t.unfix(cur, true)
	t.root = newRoot
	t.height++
	return newRootAddr, right, rn
}

// shiftRight opens a gap at position pos in a node with n entries.
func (t *Tree) shiftRight(addr simmem.Addr, pos, n int) {
	if pos >= n {
		return
	}
	buf := t.moveBuf[:(n-pos)*t.esize]
	t.m.ReadBytes(t.entry(addr, pos), buf)
	t.m.WriteBytes(t.entry(addr, pos+1), buf)
}

// splitChild splits the full node at child, whose parent is the node at
// parent (both fixed by the caller), inserts the separator into the parent
// and returns the new right node's reference and entry count.
func (t *Tree) splitChild(parent, child simmem.Addr) (uint64, int) {
	right, rightAddr := t.newNode()
	leaf := t.isLeaf(child)
	t.initNode(rightAddr, leaf)
	n := t.nKeys(child)
	if t.bp == nil {
		t.isLeaf(child) // preserved accident (1): the direct tree read the type word again to branch
	}
	mid := n / 2
	sep := t.keyAt(child, mid, t.sepBuf)
	from := mid // a leaf keeps the separator: it is right's first key
	if !leaf {
		// The separator moves up; its child becomes right's leftmost.
		t.m.WriteU64(rightAddr+8, t.valAt(child, mid))
		from = mid + 1
	}
	if moved := n - from; moved > 0 {
		buf := t.moveBuf[:moved*t.esize]
		t.m.ReadBytes(t.entry(child, from), buf)
		t.m.WriteBytes(t.entry(rightAddr, 0), buf)
	}
	t.setNKeys(rightAddr, n-from)
	t.setNKeys(child, mid)
	if leaf { // chain siblings
		t.m.WriteU64(rightAddr+8, t.m.ReadU64(child+8))
		t.m.WriteU64(child+8, right)
	}

	// Insert (sep, right) into the parent.
	pn := t.nKeys(parent)
	lb, _ := t.lowerBound(parent, pn, sep)
	t.shiftRight(parent, lb, pn)
	t.m.WriteBytes(t.entry(parent, lb), sep)
	t.setValAt(parent, lb, right)
	t.setNKeys(parent, pn+1)
	t.unfix(rightAddr, true)
	return right, n - from
}

// Delete implements Index (lazy: no merging).
func (t *Tree) Delete(key []byte) bool {
	t.checkKey(key)
	t.fa.valid = false
	addr := t.descend(key)
	n := t.nKeys(addr)
	lb, found := t.lowerBound(addr, n, key)
	if found {
		if lb < n-1 {
			buf := t.moveBuf[:(n-lb-1)*t.esize]
			t.m.ReadBytes(t.entry(addr, lb+1), buf)
			t.m.WriteBytes(t.entry(addr, lb), buf)
		}
		t.setNKeys(addr, n-1)
		t.count--
	}
	t.unfix(addr, found)
	return found
}

// Scan implements OrderedIndex.
func (t *Tree) Scan(from []byte, fn func(key []byte, val uint64) bool) {
	t.checkKey(from)
	keyBuf := t.scanBuf
	addr := t.descend(from)
	n := t.nKeys(addr)
	start, _ := t.lowerBound(addr, n, from)
	for {
		if t.bp == nil {
			// Preserved accidents (2) and (3): the direct tree read a leaf's
			// count at the loop head — a second time at the first leaf, and
			// after the visit charge at every later one.
			n = t.nKeys(addr)
		}
		for i := start; i < n; i++ {
			t.keyAt(addr, i, keyBuf)
			if !fn(keyBuf, t.valAt(addr, i)) {
				t.unfix(addr, false)
				return
			}
		}
		next := t.m.ReadU64(addr + 8)
		t.unfix(addr, false)
		if next == 0 {
			return
		}
		addr = t.fix(next)
		start = 0
		if t.bp != nil {
			n = t.nKeys(addr) // preserved accident (3): the pooled tree read the count before the visit charge
		}
		t.meter.NodeVisit(0)
	}
}

func (t *Tree) checkKey(key []byte) {
	if len(key) != t.kw {
		panic(fmt.Sprintf("index: %s key len %d, want %d", t.name, len(key), t.kw))
	}
}
