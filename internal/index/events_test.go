package index

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"oltpsim/internal/simmem"
	"oltpsim/internal/storage"
)

var updateTreeEvents = flag.Bool("update-tree-events", false,
	"rewrite testdata/tree_events.txt from this run (only on a deliberate re-baseline)")

const treeEventsFile = "testdata/tree_events.txt"

// eventRecorder is a simmem.Tracer and a Meter at once: it folds the
// interleaved stream of data accesses and node visits into one FNV-64a hash,
// so two tree implementations agree on (count, hash) exactly when they issue
// the same simulated events in the same order.
type eventRecorder struct {
	h      hash.Hash64
	n      int
	phases []string // "phase count hash" after each phase, for localising a divergence
}

func (r *eventRecorder) OnData(addr simmem.Addr, size int, write bool) {
	var b [14]byte
	binary.LittleEndian.PutUint64(b[1:], uint64(addr-simmem.DataBase))
	binary.LittleEndian.PutUint32(b[9:], uint32(size))
	if write {
		b[13] = 1
	}
	r.h.Write(b[:])
	r.n++
}

func (r *eventRecorder) NodeVisit(cmpBytes int) {
	var b [9]byte
	b[0] = 1
	binary.LittleEndian.PutUint64(b[1:], uint64(cmpBytes))
	r.h.Write(b[:])
	r.n++
}

func (r *eventRecorder) mark(phase string) {
	r.phases = append(r.phases, fmt.Sprintf("%-12s %8d %016x", phase, r.n, r.h.Sum64()))
}

// treeEventConfigs are the four node stores the engine builds trees on.
var treeEventConfigs = []struct {
	name string
	make func(m *simmem.Arena, kw int) OrderedIndex
}{
	{"btree8k-roomy", func(m *simmem.Arena, kw int) OrderedIndex {
		return NewBTree(m, storage.NewBufferPool(m, 1<<13), kw)
	}},
	// 8 frames: every descent misses and the clock comes round within one
	// operation, so which frame it evicts depends on the order of fixes and
	// unfixes, and that order is pinned too (a 64-frame pool does not see it).
	{"btree8k-8frames", func(m *simmem.Arena, kw int) OrderedIndex {
		return NewBTree(m, storage.NewBufferPool(m, 8), kw)
	}},
	{"cctree64", func(m *simmem.Arena, kw int) OrderedIndex { return NewCCTree(m, kw, 64) }},
	{"cctree512", func(m *simmem.Arena, kw int) OrderedIndex { return NewCCTree(m, kw, 512) }},
}

// eventKey encodes key number id (order-preserving) at width kw.
func eventKey(kw int, id uint64) []byte {
	if kw == 8 {
		return key8(id)
	}
	b := make([]byte, kw)
	copy(b, fmt.Sprintf("customer-%020d-suffix", id))
	return b
}

// TestTreeEventSequence is the fast fence for internal/index's trees and the
// buffer pool under them: testdata/tree_events.txt holds, per configuration,
// the number of simulated events (data accesses and node visits, interleaved)
// one scripted run issues and their FNV-64a hash. The file was generated on
// the commit before the two tree implementations were folded into one and
// pins every event of bulk load, insert (leaf, inner and root splits),
// replace, lookup, delete and scan. It asserts no wall-clock value. On a
// mismatch the per-phase table it logs (also under -v) localises the first
// diverging operation against the same table from a good commit.
func TestTreeEventSequence(t *testing.T) {
	file, err := os.ReadFile(treeEventsFile)
	if err != nil && !*updateTreeEvents {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(file), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	var out strings.Builder
	out.WriteString("# configuration events fnv64a (generated; see TestTreeEventSequence)\n")
	for _, cfg := range treeEventConfigs {
		for _, kw := range []int{8, 50} {
			name := fmt.Sprintf("%s/kw%d", cfg.name, kw)
			t.Run(name, func(t *testing.T) {
				rec := runTreeEventScript(t, kw, cfg.make)
				got := fmt.Sprintf("%d %016x", rec.n, rec.h.Sum64())
				fmt.Fprintf(&out, "%s %s\n", name, got)
				table := "after phase, events so far, hash so far:\n" + strings.Join(rec.phases, "\n")
				if got != want[name] && !*updateTreeEvents {
					t.Fatalf("event stream diverged: got %q, want %q\n%s", got, want[name], table)
				}
				t.Log(table)
			})
		}
	}
	if *updateTreeEvents {
		if err := os.WriteFile(treeEventsFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runTreeEventScript drives one tree through the scripted run. Keys are
// numbered; the bulk load inserts the multiples of 4, which leaves three
// absent key numbers between any two neighbours for inserts and misses.
func runTreeEventScript(t *testing.T, kw int, mk func(*simmem.Arena, int) OrderedIndex) *eventRecorder {
	t.Helper()
	key := func(id uint64) []byte { return eventKey(kw, id) }

	// Dry run on a throwaway tree: the ascending load is deterministic, so
	// the number of keys at which the height next grows (past a minimum size)
	// tells the real run where to stop with a full root.
	const minLoad = 5000
	dry := mk(simmem.New(), kw)
	dryHeight := dry.(interface{ Height() int }).Height
	n := uint64(0) // keys loaded before the insert that grows the tree
	for {
		h := dryHeight()
		dry.Insert(key(4*(n+1)), n)
		if n >= minLoad && dryHeight() > h {
			break
		}
		n++
	}

	m := simmem.New()
	rec := &eventRecorder{h: fnv.New64a()}
	tr := mk(m, kw)
	tr.SetMeter(rec)
	// Asserted, not typed: the script also compiles against the two tree
	// types this fence was generated on.
	height := tr.(interface{ Height() int }).Height

	// Untraced ascending bulk load: the appendPath fast path. Only its meter
	// charges are events.
	for i := uint64(0); i < n; i++ {
		tr.Insert(key(4*(i+1)), i)
	}
	rec.mark("load")
	m.SetTracer(rec)
	m.EnableTracing(true)
	rng := rand.New(rand.NewSource(19))

	// The root is full and the tree at least two levels high: this insert
	// splits the root, which is an inner node.
	h0 := height()
	tr.Insert(key(4*(n/2)+1), 1)
	if h0 < 2 || height() != h0+1 {
		t.Fatalf("height %d -> %d, the script wants a root split of an inner node", h0, height())
	}
	rec.mark("root-split")

	// 9000 new keys between 3000 neighbouring old ones: every leaf there
	// overflows whatever the node size (at most 510 entries), repeatedly for
	// all but the 8-byte-key pages, and so do the inner nodes above them —
	// all under one child of the root, so that also the 140-way inner page
	// of the 50-byte-key B-tree splits below a root that stays.
	const lo = 200
	for _, p := range rng.Perm(9000) {
		tr.Insert(key(4*(lo+uint64(p/3)+1)+1+uint64(p%3)), uint64(p))
	}
	rec.mark("dense-insert")

	// Inserts all over the key space but its last 200 keys (residue 1 only,
	// so residues 2 and 3 stay absent outside the dense window), then
	// replaces of loaded keys.
	for i := 0; i < 300; i++ {
		tr.Insert(key(4*(uint64(rng.Int63n(int64(n-200)))+1)+1), uint64(i))
	}
	rec.mark("rand-insert")
	for i := 0; i < 50; i++ {
		tr.Insert(key(4*(uint64(rng.Int63n(int64(n)))+1)), uint64(1000+i))
	}
	rec.mark("replace")

	for i := 0; i < 100; i++ {
		if _, ok := tr.Lookup(key(4 * (uint64(rng.Int63n(int64(n))) + 1))); !ok {
			t.Fatal("loaded key missing")
		}
	}
	misses := []uint64{1, 4*(n+1) + 7} // below the first key, above the last
	for i := 0; i < 50; i++ {
		misses = append(misses, 4*(uint64(rng.Int63n(lo))+1)+3)
	}
	for _, id := range misses {
		if _, ok := tr.Lookup(key(id)); ok {
			t.Fatalf("absent key %d found", id)
		}
	}
	rec.mark("lookup")

	// Two runs of 520 neighbouring keys — more than any leaf holds — deleted
	// downwards (each crossing of a leaf boundary deletes a leaf's last key,
	// the rest are middles) and upwards (every key is its leaf's first once
	// its predecessor is gone); small nodes are emptied and stay chained.
	const up, down = 3300, 4420 // past the dense window, before the last 200 of at least 5000 keys
	for i := uint64(0); i < 520; i++ {
		if !tr.Delete(key(4 * (down - i + 1))) {
			t.Fatal("delete of loaded key failed")
		}
	}
	for i := uint64(0); i < 520; i++ {
		if !tr.Delete(key(4 * (up + i + 1))) {
			t.Fatal("delete of loaded key failed")
		}
	}
	for _, id := range misses[:10] {
		if tr.Delete(key(id)) {
			t.Fatalf("delete of absent key %d succeeded", id)
		}
	}
	rec.mark("delete")

	scan := func(from uint64, limit, want int) {
		t.Helper()
		got := 0
		tr.Scan(key(from), func([]byte, uint64) bool { got++; return got < limit })
		if got != want {
			t.Fatalf("scan from %d limit %d visited %d entries, want %d", from, limit, got, want)
		}
	}
	scan(0, 50, 50)                // from the start, early stop
	scan(4*(lo-50)+2, 1, 1)        // from an absent key, stop at once
	scan(4*(n/2), 1500, 1500)      // from a present key across several leaves
	scan(4*(up-100+1), 1500, 1500) // across the emptied leaves
	scan(4*(n-100+1), 1<<30, 100)  // off the end of the leaf chain
	scan(4*(n+1)+7, 1<<30, 0)      // past the last key
	rec.mark("scan")
	return rec
}
