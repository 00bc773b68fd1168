package core

import (
	"fmt"
	"slices"
	"testing"

	"oltpsim/internal/simmem"
)

// A wayCache has no behaviour of its own to specify: it must be Cache,
// minus the search. These tests hold it to that call by call, with Cache as
// the reference — as the L1I (code lines, fill only) and as the unified L2
// (code and data lines, every call the hierarchy makes).

// geomOf is a geometry of exactly sets x ways 64-byte lines.
func geomOf(sets, ways int) CacheGeom {
	return CacheGeom{SizeBytes: sets * ways * LineBytes, LineBytes: LineBytes, Assoc: ways, MissPenalty: 8}
}

// residentLines returns the line IDs a Lines method visits, sorted.
func residentLines(lines func(visit func(uint64))) []uint64 {
	var ids []uint64
	lines(func(id uint64) { ids = append(ids, id) })
	slices.Sort(ids)
	return ids
}

// checkWayCacheIndex checks the representation's own consistency: where and
// slot name each other, every order word is a permutation of the ways, and
// empty ways hold the highest lanes.
func checkWayCacheIndex(t *testing.T, c *wayCache) {
	t.Helper()
	for idx, w := range c.where {
		if w == 0 {
			continue
		}
		line := uint64(idx) + codeLineBase
		if s := c.slot[c.setOf(line)*c.ways+uint64(w-1)]; s != line+1 {
			t.Fatalf("%dx%d: where[%d] = way %d, but that slot holds tag %#x", c.sets, c.ways, idx, w-1, s)
		}
	}
	for i, s := range c.slot {
		if idx := s - 1 - codeLineBase; s != 0 && idx < codeLineLimit {
			if idx >= uint64(len(c.where)) || uint64(c.where[idx]) != uint64(i)%c.ways+1 {
				t.Fatalf("%dx%d: slot %d holds code line +%d, which where does not place there", c.sets, c.ways, i, idx)
			}
		}
	}
	for s, ord := range c.order {
		seen, empty := 0, false
		for r := uint64(0); r < 16; r++ {
			w := ord >> (4 * r) & 0xf
			if r >= c.ways {
				if w != 0 {
					t.Fatalf("%dx%d: set %d order %#x has a way in unused lane %d", c.sets, c.ways, s, ord, r)
				}
				continue
			}
			seen |= 1 << w
			if c.slot[uint64(s)*c.ways+w] == 0 {
				empty = true
			} else if empty {
				t.Fatalf("%dx%d: set %d order %#x ranks a resident way below an empty one", c.sets, c.ways, s, ord)
			}
		}
		if seen != 1<<c.ways-1 {
			t.Fatalf("%dx%d: set %d order %#x is not a permutation of %d ways", c.sets, c.ways, s, ord, c.ways)
		}
	}
}

// checkICacheAgainstCache drives both with the same line offsets (relative to
// the code base) and fails on the first differing hit/miss report, then
// compares the resident sets and the index's own consistency.
func checkICacheAgainstCache(t *testing.T, sets, ways int, offs []uint64) {
	t.Helper()
	g := geomOf(sets, ways)
	ic, ref := newWayCache("L1I", g), NewCache(g)
	for i, off := range offs {
		line := codeLineBase + off
		if got, _ := ic.fill(line); got != ref.Access(line, ClassInstr) {
			t.Fatalf("%dx%d step %d line +%d: fill hit=%v, Cache.Access hit=%v", sets, ways, i, off, got, !got)
		}
	}
	got, want := residentLines(ic.Lines), residentLines(ref.Lines)
	if !slices.Equal(got, want) {
		t.Fatalf("%dx%d: resident lines differ after %d steps:\n wayCache %v\n Cache    %v", sets, ways, len(offs), got, want)
	}
	checkWayCacheIndex(t, ic)
}

func TestICacheMatchesCache(t *testing.T) {
	for _, sets := range []int{1, 3, 64} {
		for _, ways := range []int{1, 2, 8, 16} {
			capacity := uint64(sets * ways)
			r := &testRand{s: uint64(sets*100 + ways)}
			seqs := map[string][]uint64{}
			// Random: a footprint of 3x capacity, so hits at every recency
			// rank and misses both occur.
			for i := 0; i < 20000; i++ {
				seqs["random"] = append(seqs["random"], r.next()%(3*capacity))
			}
			// Sequential sweep: a long run, twice (all misses, FetchCode's
			// common case), then a short run that fits (all hits).
			for pass := 0; pass < 2; pass++ {
				for off := uint64(0); off < 4*capacity+5; off++ {
					seqs["sweep"] = append(seqs["sweep"], off)
				}
			}
			for pass := 0; pass < 3; pass++ {
				for off := uint64(0); off < capacity; off++ {
					seqs["sweep"] = append(seqs["sweep"], 1000+off)
				}
			}
			// Cyclic thrash: capacity+1 lines round and round — true LRU
			// misses every time — with an occasional re-touch of a recent line
			// so non-MRU hits reorder the set mid-thrash.
			for i := uint64(0); i < 50*(capacity+1); i++ {
				seqs["thrash"] = append(seqs["thrash"], i%(capacity+1))
				if i%7 == 3 {
					seqs["thrash"] = append(seqs["thrash"], (i-uint64(r.intn(3)))%(capacity+1))
				}
			}
			// Same-set stride: every line lands in one set.
			for i := 0; i < 5000; i++ {
				seqs["stride"] = append(seqs["stride"], uint64(r.intn(2*ways+1)*sets))
			}
			for name, offs := range seqs {
				t.Run(fmt.Sprintf("%dx%d/%s", sets, ways, name), func(t *testing.T) {
					checkICacheAgainstCache(t, sets, ways, offs)
				})
			}
		}
	}
}

// FuzzICache feeds arbitrary line sequences over a fuzzer-chosen geometry
// through the same differential. Budgeted at 20s in CI (numa-fuzz-smoke) and
// `make fuzz`:
//
//	go test -run '^FuzzICache$' -fuzz FuzzICache -fuzztime 20s ./internal/core
func FuzzICache(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 1, 0, 2, 1, 0})
	f.Add(uint8(2), uint8(7), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 0, 5})
	f.Add(uint8(63), uint8(15), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, setsIn, waysIn uint8, data []byte) {
		sets, ways := int(setsIn%64)+1, int(waysIn%16)+1
		// 2*ways+1 lines in play per set, over as many sets as a byte reaches,
		// so short inputs already evict and reorder.
		perSet := uint64(2*ways + 1)
		offs := make([]uint64, len(data))
		for i, b := range data {
			offs[i] = uint64(b)%perSet*uint64(sets) + uint64(b)/perSet%uint64(sets)
		}
		checkICacheAgainstCache(t, sets, ways, offs)
	})
}

// lruCache is Cache's method set for the eight calls the hierarchy makes on
// an L2.
type lruCache interface {
	Access(lineID uint64, class AccessClass) bool
	AccessEvict(lineID uint64, class AccessClass) (bool, uint64)
	FillQuiet(lineID uint64)
	FillQuietEvict(lineID uint64) uint64
	Probe(lineID uint64) bool
	Invalidate(lineID uint64) bool
	Lines(visit func(lineID uint64))
	Stats(class AccessClass) CacheStats
}

// The eight calls, by index into calls.
const (
	callAccess = iota
	callAccessEvict
	callFillQuiet
	callFillQuietEvict
	callProbe
	callInvalidate
	callLines
	callStats
)

// hierL2 is a wayCache under Cache's method set, making each call the way
// the hierarchy makes it on its L2: a counted access is fill then count,
// a quiet one fill alone.
type hierL2 struct{ *wayCache }

func (c hierL2) Access(line uint64, class AccessClass) bool {
	hit, _ := c.AccessEvict(line, class)
	return hit
}

func (c hierL2) AccessEvict(line uint64, class AccessClass) (bool, uint64) {
	hit, evicted := c.fill(line)
	c.count(class, hit)
	return hit, evicted
}

func (c hierL2) FillQuiet(line uint64) { c.fill(line) }

func (c hierL2) FillQuietEvict(line uint64) uint64 {
	_, evicted := c.fill(line)
	return evicted
}

// calls makes each call, rendering everything it answers.
var calls = [...]func(c lruCache, line uint64, class AccessClass) string{
	callAccess: func(c lruCache, line uint64, class AccessClass) string {
		return fmt.Sprint("Access ", c.Access(line, class))
	},
	callAccessEvict: func(c lruCache, line uint64, class AccessClass) string {
		hit, ev := c.AccessEvict(line, class)
		return fmt.Sprint("AccessEvict ", hit, ev)
	},
	callFillQuiet: func(c lruCache, line uint64, _ AccessClass) string { c.FillQuiet(line); return "FillQuiet" },
	callFillQuietEvict: func(c lruCache, line uint64, _ AccessClass) string {
		return fmt.Sprint("FillQuietEvict ", c.FillQuietEvict(line))
	},
	callProbe: func(c lruCache, line uint64, _ AccessClass) string { return fmt.Sprint("Probe ", c.Probe(line)) },
	callInvalidate: func(c lruCache, line uint64, _ AccessClass) string {
		return fmt.Sprint("Invalidate ", c.Invalidate(line))
	},
	callLines: func(c lruCache, _ uint64, _ AccessClass) string {
		return fmt.Sprint("Lines ", residentLines(c.Lines))
	},
	callStats: func(c lruCache, _ uint64, class AccessClass) string { return fmt.Sprint("Stats ", c.Stats(class)) },
}

// l2Step is one call: calls[call] on line, counted under class.
type l2Step struct {
	call  int
	line  uint64
	class AccessClass
}

// checkL2AgainstCache makes the same calls on an L2 and on a Cache of the
// same geometry and fails on the first differing answer (hit or residency
// flag, evicted tag, resident set, counters), then compares the final
// resident sets and counters and checks the index's consistency.
func checkL2AgainstCache(t *testing.T, sets, ways int, steps []l2Step) {
	t.Helper()
	g := geomOf(sets, ways)
	l2, ref := hierL2{newWayCache("L2", g)}, NewCache(g)
	for i, st := range steps {
		if got, want := calls[st.call](l2, st.line, st.class), calls[st.call](ref, st.line, st.class); got != want {
			t.Fatalf("%dx%d step %d line %#x class %d: L2 %q, Cache %q", sets, ways, i, st.line, st.class, got, want)
		}
	}
	if got, want := residentLines(l2.Lines), residentLines(ref.Lines); !slices.Equal(got, want) {
		t.Fatalf("%dx%d: resident lines differ after %d steps:\n L2    %v\n Cache %v", sets, ways, len(steps), got, want)
	}
	for class := ClassInstr; class < numClasses; class++ {
		if got, want := l2.Stats(class), ref.Stats(class); got != want {
			t.Fatalf("%dx%d: class %d stats %+v, Cache %+v", sets, ways, class, got, want)
		}
	}
	checkWayCacheIndex(t, l2.wayCache)
}

// l2Line maps offset off of the code or the data segment to a line ID,
// shifting data lines so that equal offsets fall in the same set.
func l2Line(code bool, off uint64, sets int) uint64 {
	if code {
		return codeLineBase + off
	}
	dataLineBase := uint64(simmem.DataBase) >> LineShift
	s := uint64(sets)
	return dataLineBase + off + (codeLineBase%s+s-dataLineBase%s)%s
}

func TestL2MatchesCache(t *testing.T) {
	for _, sets := range []int{1, 3, 64, 512} {
		for _, ways := range []int{1, 2, 8, 16} {
			capacity := uint64(sets * ways)
			r := &testRand{s: uint64(sets*100 + ways)}
			// A call other than Lines, which renders the whole cache and so
			// is kept to one step in 64.
			call := func() int {
				if c := r.intn(len(calls)); c != callLines || r.intn(8) == 0 {
					return c
				}
				return callAccess
			}
			seqs := map[string][]l2Step{}
			// Random: code and data lines over a footprint of 2x capacity
			// each, so both kinds hit at every rank, evict each other and
			// are invalidated while resident.
			for i := uint64(0); i < 20000+4*capacity; i++ {
				line := l2Line(r.intn(2) == 0, r.next()%(2*capacity), sets)
				seqs["random"] = append(seqs["random"], l2Step{call(), line, AccessClass(r.intn(2))})
			}
			// Same set: 2*ways+1 lines of each kind, all in one set.
			for i := 0; i < 5000; i++ {
				line := l2Line(r.intn(2) == 0, uint64(r.intn(2*ways+1)*sets), sets)
				seqs["oneset"] = append(seqs["oneset"], l2Step{call(), line, AccessClass(r.intn(2))})
			}
			// FetchCode under data traffic: code sweeps (Access, then the
			// prefetch FillQuiet) interleaved with data reads
			// (AccessEvict), writes (FillQuietEvict) and invalidations.
			for i := 0; i < 5000; i++ {
				off := uint64(r.intn(int(3 * capacity)))
				switch r.intn(4) {
				case 0, 1:
					for n := uint64(0); n < 8; n++ {
						seqs["walk"] = append(seqs["walk"],
							l2Step{callAccess, l2Line(true, off+n, sets), ClassInstr},
							l2Step{callFillQuiet, l2Line(true, off+n+1, sets), ClassInstr})
					}
				case 2:
					op := []int{callAccessEvict, callFillQuietEvict}[r.intn(2)]
					seqs["walk"] = append(seqs["walk"], l2Step{op, l2Line(false, off, sets), ClassData})
				default:
					seqs["walk"] = append(seqs["walk"], l2Step{callInvalidate, l2Line(r.intn(2) == 0, off, sets), ClassData})
				}
			}
			for name, steps := range seqs {
				t.Run(fmt.Sprintf("%dx%d/%s", sets, ways, name), func(t *testing.T) {
					checkL2AgainstCache(t, sets, ways, steps)
				})
			}
		}
	}
}

// FuzzL2 feeds arbitrary call sequences over a fuzzer-chosen geometry
// through the same differential: two bytes per step, the first choosing the
// call and the class, the second code or data and the line. Budgeted at 20s
// in CI (numa-fuzz-smoke) and `make fuzz`:
//
//	go test -run '^FuzzL2$' -fuzz FuzzL2 -fuzztime 20s ./internal/core
func FuzzL2(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 0, 8, 1, 5, 0, 0, 2, 1, 3})
	f.Add(uint8(2), uint8(7), []byte("\x00\x10\x01\x11\x02\x12\x03\x13\x05\x10\x00\x10\x04\x11\x07\x00"))
	f.Add(uint8(63), uint8(15), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, setsIn, waysIn uint8, data []byte) {
		sets, ways := int(setsIn%64)+1, int(waysIn%16)+1
		// 2*ways+1 lines of each kind in play per set, as FuzzICache does.
		perSet := uint64(2*ways + 1)
		steps := make([]l2Step, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			b := uint64(data[i+1] >> 1)
			off := b%perSet*uint64(sets) + b/perSet%uint64(sets)
			steps = append(steps, l2Step{int(data[i]) % len(calls), l2Line(data[i+1]&1 == 0, off, sets), AccessClass(data[i] >> 7)})
		}
		checkL2AgainstCache(t, sets, ways, steps)
	})
}

// refWalk is what FetchCode and DataAccess mean, written out per line over
// plain Caches on one socket's worth of coherence (or none): every line of a
// fetch run is looked up in the L1I, prefetched lines included, counters
// tick per line, and a write invalidates every other core's private copies.
type refWalk struct {
	cfg               HierarchyConfig
	l1i, l1d, l2, llc []*Cache // l1i/l1d/l2 per core, llc per socket
	counts            []MissCounts
}

func newRefWalk(cfg HierarchyConfig) *refWalk {
	r := &refWalk{cfg: cfg, counts: make([]MissCounts, cfg.Cores)}
	for c := 0; c < cfg.Cores; c++ {
		r.l1i = append(r.l1i, NewCache(cfg.L1I))
		r.l1d = append(r.l1d, NewCache(cfg.L1D))
		r.l2 = append(r.l2, NewCache(cfg.L2))
	}
	for s := 0; s < cfg.Sockets; s++ {
		r.llc = append(r.llc, NewCache(cfg.LLC))
	}
	return r
}

func (r *refWalk) fetch(core int, addr simmem.Addr, nLines int) int {
	ct := &r.counts[core]
	s := core / r.cfg.CoresPerSocket()
	stall := 0
	for i := 0; i < nLines; i++ {
		id := uint64(addr)>>LineShift + uint64(i)
		ct.L1IAcc++
		if r.l1i[core].Access(id, ClassInstr) {
			continue
		}
		ct.L1IMiss++
		stall += r.cfg.L1I.MissPenalty
		l2hit := r.l2[core].Access(id, ClassInstr)
		llcHit := l2hit || r.llc[s].Access(id, ClassInstr)
		for p := 1; p <= r.cfg.IPrefetchLines; p++ {
			r.l1i[core].FillQuiet(id + uint64(p))
			r.l2[core].FillQuiet(id + uint64(p))
			r.llc[s].FillQuiet(id + uint64(p))
			ct.IPrefetches++
		}
		if l2hit {
			continue
		}
		ct.L2IMiss++
		stall += r.cfg.L2.MissPenalty
		if llcHit {
			continue
		}
		ct.LLCIMiss++
		remote := false
		for t := range r.llc {
			remote = remote || (t != s && r.llc[t].Probe(id))
		}
		if remote {
			ct.LLCIRemoteLLC++
			stall += r.cfg.RemoteLLCPenalty
		} else {
			stall += r.cfg.LLC.MissPenalty
		}
	}
	return stall
}

// data is one single-line DataAccess on a one-socket machine.
func (r *refWalk) data(core int, addr simmem.Addr, write bool) int {
	id := uint64(addr) >> LineShift
	ct := &r.counts[core]
	ct.L1DAcc++
	if write {
		r.l1d[core].FillQuiet(id)
		r.l2[core].FillQuiet(id)
		r.llc[0].FillQuiet(id)
		for c := range r.l1d {
			if c != core && r.cfg.Coherence {
				for _, priv := range []*Cache{r.l1d[c], r.l2[c]} {
					if priv.Invalidate(id) {
						r.counts[c].Invalidations++
					}
				}
			}
		}
		return 0
	}
	if r.l1d[core].Access(id, ClassData) {
		return 0
	}
	ct.L1DMiss++
	if r.l2[core].Access(id, ClassData) {
		return r.cfg.L1D.MissPenalty
	}
	ct.L2DMiss++
	if r.llc[0].Access(id, ClassData) {
		return r.cfg.L1D.MissPenalty + r.cfg.L2.MissPenalty
	}
	ct.LLCDMiss++
	return r.cfg.L1D.MissPenalty + r.cfg.L2.MissPenalty + r.cfg.LLC.MissPenalty
}

// checkMatchesRefWalk compares everything a step can change: the stall, every
// core's counters, the named core's cache contents at every level, and its
// L2's and socket's LLC's per-class counters.
func checkMatchesRefWalk(t *testing.T, h *Hierarchy, ref *refWalk, step, core int, what string, got, want int) {
	t.Helper()
	if got != want {
		t.Fatalf("step %d core %d %s: stall %d, reference %d", step, core, what, got, want)
	}
	for c := range h.counts {
		if h.Counts(c) != ref.counts[c] {
			t.Fatalf("step %d core %d %s: core %d counts\n got  %+v\n want %+v", step, core, what, c, h.Counts(c), ref.counts[c])
		}
	}
	sameLines := func(which string, got, want []uint64) {
		if !slices.Equal(got, want) {
			t.Fatalf("step %d core %d %s: %s contents differ\n got  %v\n want %v", step, core, what, which, got, want)
		}
	}
	cc := &h.cores[core]
	sameLines("L1I", residentLines(cc.l1i.Lines), residentLines(ref.l1i[core].Lines))
	sameLines("L1D", residentLines(cc.l1d.Lines), residentLines(ref.l1d[core].Lines))
	sameLines("L2", residentLines(cc.l2.Lines), residentLines(ref.l2[core].Lines))
	s := h.SocketOf(core)
	sameLines("LLC", residentLines(h.llcs[s].Lines), residentLines(ref.llc[s].Lines))
	for class := ClassInstr; class < numClasses; class++ {
		if got, want := cc.l2.Stats(class), ref.l2[core].Stats(class); got != want {
			t.Fatalf("step %d core %d %s: L2 class %d stats %+v, reference %+v", step, core, what, class, got, want)
		}
		if got, want := h.llcs[s].Stats(class), ref.llc[s].Stats(class); got != want {
			t.Fatalf("step %d core %d %s: LLC class %d stats %+v, reference %+v", step, core, what, class, got, want)
		}
	}
}

// walkStart picks a fetch run: regions of assorted sizes; a run starts
// anywhere inside one and may run a few lines past its end.
func walkStart(r *testRand) (addr simmem.Addr, start, n int) {
	regions := []struct{ base, lines int }{{0, 3}, {7, 40}, {64, 9}, {100, 300}, {500, 17}}
	reg := regions[r.intn(len(regions))]
	start = reg.base + r.intn(reg.lines)
	n = 1 + r.intn(reg.lines)
	if r.intn(4) == 0 {
		n = 1 + r.intn(4)
	}
	return simmem.CodeBase + simmem.Addr(start*LineBytes+r.intn(LineBytes)), start, n
}

// TestFetchCodeMatchesReferenceWalk is the gate for FetchCode's run walk and
// its step-over of just-prefetched lines: random region walks on several
// cores, for every prefetch depth and for L1I geometries on both sides of
// the "prefetched lines fall in distinct sets" condition, must leave
// identical stalls, counters and cache contents after every call.
func TestFetchCodeMatchesReferenceWalk(t *testing.T) {
	l1is := map[string]CacheGeom{
		"1set": geomOf(1, 2), "1set1way": geomOf(1, 1), "2set": geomOf(2, 2),
		"3set": geomOf(3, 4), "16x2": geomOf(8, 2), "64x8": geomOf(64, 8),
	}
	for name, l1i := range l1is {
		for _, pf := range []int{0, 1, 2, 4} {
			for _, sockets := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/pf%d/%dsock", name, pf, sockets), func(t *testing.T) {
					cfg := numaTestCfg(4, sockets)
					cfg.L1I, cfg.IPrefetchLines = l1i, pf
					cfg.L2 = geomOf(8, 4)   // 32 lines: code falls out of the L2
					cfg.LLC = geomOf(16, 8) // 128 lines: and out of the LLC
					h := NewHierarchy(cfg)
					ref := newRefWalk(h.Config())
					r := &testRand{s: uint64(pf*10 + sockets)}
					for step := 0; step < 2000; step++ {
						core := r.intn(cfg.Cores)
						addr, start, n := walkStart(r)
						what := fmt.Sprintf("fetch +%d x%d", start, n)
						checkMatchesRefWalk(t, h, ref, step, core, what, h.FetchCode(core, addr, n), ref.fetch(core, addr, n))
					}
				})
			}
		}
	}
}

// TestFetchCodeUnderDataMatchesReferenceWalk is its sibling for the unified
// L2: two coherent cores interleave fetch runs with data reads and writes
// over a pool larger than the L2, so code lines leave the L2 through data
// fills and coherence invalidations empty ways that code then fills. The
// walk must match the reference after every call.
func TestFetchCodeUnderDataMatchesReferenceWalk(t *testing.T) {
	for _, pf := range []int{0, 1, 2} {
		for _, l2 := range []CacheGeom{geomOf(8, 4), geomOf(3, 8), geomOf(4, 16)} {
			t.Run(fmt.Sprintf("pf%d/L2_%dx%d", pf, l2.Sets(), l2.Assoc), func(t *testing.T) {
				cfg := smallHierCfg(2)
				cfg.IPrefetchLines, cfg.L2 = pf, l2
				cfg.LLC = geomOf(16, 8)
				h := NewHierarchy(cfg)
				ref := newRefWalk(h.Config())
				r := &testRand{s: uint64(pf*100 + l2.Sets()*l2.Assoc)}
				for step := 0; step < 4000; step++ {
					core := r.intn(cfg.Cores)
					if r.intn(2) == 0 {
						addr, start, n := walkStart(r)
						what := fmt.Sprintf("fetch +%d x%d", start, n)
						checkMatchesRefWalk(t, h, ref, step, core, what, h.FetchCode(core, addr, n), ref.fetch(core, addr, n))
						continue
					}
					addr := simmem.DataBase + simmem.Addr(r.intn(96)*LineBytes+r.intn(LineBytes-8))
					write := r.intn(3) == 0
					what := fmt.Sprintf("data %#x write=%v", uint64(addr), write)
					checkMatchesRefWalk(t, h, ref, step, core, what, h.DataAccess(core, addr, 8, write), ref.data(core, addr, write))
				}
				if err := h.CheckCoherent(); err != nil {
					t.Fatal(err)
				}
				if inv := h.Counts(0).Invalidations + h.Counts(1).Invalidations; inv == 0 {
					t.Fatal("no write invalidated another core's copy; the case tests nothing")
				}
				for c := 0; c < cfg.Cores; c++ {
					checkWayCacheIndex(t, h.cores[c].l2)
				}
			})
		}
	}
}

// FuzzFetchCode is the fuzzed twin of the two reference-walk tests: the
// fuzzer picks the L1I, L2 and LLC geometry (set counts 1..24, powers of two
// or not; 1..16 ways for the L1I and the L2, 1..20 for the LLC), the
// prefetch depth (0..4) and one or two sockets, then drives three bytes per
// step: fetch runs on any core and, on one-socket machines, data reads and
// writes. Stall, counters, contents and the L2's and LLC's class counters
// must match the reference after every call, and both wayCaches' indexes
// must stay consistent. Budgeted at 20s in CI (numa-fuzz-smoke) and
// `make fuzz`:
//
//	go test -run '^FuzzFetchCode$' -fuzz FuzzFetchCode -fuzztime 20s ./internal/core
func FuzzFetchCode(f *testing.F) {
	f.Add(uint8(63), uint8(7), uint8(7), uint8(3), uint8(15), uint8(7), uint8(2), []byte{0, 0, 40, 1, 3, 9, 0x10, 5, 0, 0, 0, 40, 0x81, 200, 0x7f})
	f.Add(uint8(0), uint8(1), uint8(2), uint8(7), uint8(2), uint8(19), uint8(4), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(2), uint8(15), uint8(15), uint8(15), uint8(31), uint8(0), uint8(8), []byte{1, 2, 3, 0x12, 9, 1, 3, 0, 0xff, 2, 100, 0x30})
	f.Fuzz(func(t *testing.T, l1iSets, l1iWays, l2Sets, l2Ways, llcSets, llcWays, opts uint8, data []byte) {
		sockets := 1 + int(opts/5)%2
		cfg := smallHierCfg(2)
		if sockets == 2 {
			cfg = numaTestCfg(4, 2)
		}
		cfg.L1I = geomOf(int(l1iSets)%24+1, int(l1iWays)%16+1)
		cfg.L2 = geomOf(int(l2Sets)%24+1, int(l2Ways)%16+1)
		cfg.LLC = geomOf(int(llcSets)%32+1, int(llcWays)%20+1)
		cfg.IPrefetchLines = int(opts % 5)
		h := NewHierarchy(cfg)
		ref := newRefWalk(h.Config())
		for i := 0; i+2 < len(data); i += 3 {
			b0, b1, b2 := data[i], data[i+1], data[i+2]
			step, core := i/3, int(b0)%cfg.Cores
			var what string
			var got, want int
			if sockets == 1 && b0>>4&3 == 0 {
				addr := simmem.DataBase + simmem.Addr(int(b1)*LineBytes+int(b2>>1)%(LineBytes-8))
				write := b2&1 == 1
				what = fmt.Sprintf("data %#x write=%v", uint64(addr), write)
				got, want = h.DataAccess(core, addr, 8, write), ref.data(core, addr, write)
			} else {
				start, n := int(b1)*2+int(b2>>7), 1+int(b2&0x7f)%48
				addr := simmem.CodeBase + simmem.Addr(start*LineBytes+int(b0)%LineBytes)
				what = fmt.Sprintf("fetch +%d x%d", start, n)
				got, want = h.FetchCode(core, addr, n), ref.fetch(core, addr, n)
			}
			checkMatchesRefWalk(t, h, ref, step, core, what, got, want)
			checkWayCacheIndex(t, h.cores[core].l1i)
			checkWayCacheIndex(t, h.cores[core].l2)
		}
	})
}
