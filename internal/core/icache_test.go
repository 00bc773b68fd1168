package core

import (
	"fmt"
	"slices"
	"testing"

	"oltpsim/internal/simmem"
)

// The icache has no behaviour of its own to specify: it must be Cache, minus
// the search. These tests hold it to that line by line, with Cache as the
// reference.

// icacheGeom is a geometry of exactly sets x ways 64-byte lines.
func icacheGeom(sets, ways int) CacheGeom {
	return CacheGeom{SizeBytes: sets * ways * LineBytes, LineBytes: LineBytes, Assoc: ways, MissPenalty: 8}
}

// resident returns the icache's resident line IDs, sorted.
func (c *icache) resident() []uint64 {
	var ids []uint64
	for _, s := range c.slot {
		if s != 0 {
			ids = append(ids, s-1+icacheBase)
		}
	}
	slices.Sort(ids)
	return ids
}

func residentLines(c *Cache) []uint64 {
	var ids []uint64
	c.Lines(func(id uint64) { ids = append(ids, id) })
	slices.Sort(ids)
	return ids
}

// checkICacheAgainstCache drives both with the same line offsets (relative to
// the code base) and fails on the first differing hit/miss report, then
// compares the resident sets and the index's own consistency.
func checkICacheAgainstCache(t *testing.T, sets, ways int, offs []uint64) {
	t.Helper()
	g := icacheGeom(sets, ways)
	ic, ref := newICache(g), NewCache(g)
	for i, off := range offs {
		line := icacheBase + off
		if got, want := ic.touch(line), ref.Access(line, ClassInstr); got != want {
			t.Fatalf("%dx%d step %d line +%d: touch hit=%v, Cache.Access hit=%v", sets, ways, i, off, got, want)
		}
	}
	got, want := ic.resident(), residentLines(ref)
	if !slices.Equal(got, want) {
		t.Fatalf("%dx%d: resident lines differ after %d steps:\n icache %v\n cache  %v", sets, ways, len(offs), got, want)
	}
	// where and slot must name each other, and every order word must be a
	// permutation of the ways.
	n := 0
	for idx, w := range ic.where {
		if w == 0 {
			continue
		}
		n++
		set := (uint64(idx) + icacheBase) % uint64(sets)
		if s := ic.slot[set*uint64(ways)+uint64(w-1)]; s != uint64(idx)+1 {
			t.Fatalf("%dx%d: where[%d]=way %d but that slot holds index %d", sets, ways, idx, w-1, int64(s)-1)
		}
	}
	if n != len(got) {
		t.Fatalf("%dx%d: where marks %d lines resident, slot %d", sets, ways, n, len(got))
	}
	for s, ord := range ic.order {
		seen := 0
		for r := 0; r < 16; r++ {
			w := int(ord >> (4 * r) & 0xf)
			if r >= ways {
				if w != 0 {
					t.Fatalf("%dx%d: set %d order %#x has a way in unused lane %d", sets, ways, s, ord, r)
				}
				continue
			}
			seen |= 1 << w
		}
		if seen != 1<<ways-1 {
			t.Fatalf("%dx%d: set %d order %#x is not a permutation of %d ways", sets, ways, s, ord, ways)
		}
	}
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

// refFetch is what FetchCode means, written out per line over three plain
// Caches: every line of the run is looked up in the L1I, prefetched lines
// included, and counters tick per line.
type refFetch struct {
	cfg          HierarchyConfig
	l1i, l2, llc []*Cache // l1i/l2 per core, llc per socket
	counts       []MissCounts
}

func newRefFetch(cfg HierarchyConfig) *refFetch {
	r := &refFetch{cfg: cfg, counts: make([]MissCounts, cfg.Cores)}
	for c := 0; c < cfg.Cores; c++ {
		r.l1i = append(r.l1i, NewCache(cfg.L1I))
		r.l2 = append(r.l2, NewCache(cfg.L2))
	}
	for s := 0; s < cfg.Sockets; s++ {
		r.llc = append(r.llc, NewCache(cfg.LLC))
	}
	return r
}

func (r *refFetch) fetch(core int, addr simmem.Addr, nLines int) int {
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

// TestFetchCodeMatchesReferenceWalk is the gate for FetchCode's run walk and
// its step-over of just-prefetched lines: random region walks on several
// cores, for every prefetch depth and for L1I geometries on both sides of
// the "prefetched lines fall in distinct sets" condition, must leave
// identical stalls, counters and cache contents after every call.
func TestFetchCodeMatchesReferenceWalk(t *testing.T) {
	l1is := map[string]CacheGeom{
		"1set": icacheGeom(1, 2), "1set1way": icacheGeom(1, 1), "2set": icacheGeom(2, 2),
		"3set": icacheGeom(3, 4), "16x2": icacheGeom(8, 2), "64x8": icacheGeom(64, 8),
	}
	for name, l1i := range l1is {
		for _, pf := range []int{0, 1, 2, 4} {
			for _, sockets := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/pf%d/%dsock", name, pf, sockets), func(t *testing.T) {
					cfg := numaTestCfg(4, sockets)
					cfg.L1I, cfg.IPrefetchLines = l1i, pf
					cfg.L2 = icacheGeom(8, 4)   // 32 lines: code falls out of the L2
					cfg.LLC = icacheGeom(16, 8) // 128 lines: and out of the LLC
					h := NewHierarchy(cfg)
					ref := newRefFetch(h.Config())
					r := &testRand{s: uint64(pf*10 + sockets)}
					// Regions of assorted sizes; walks start anywhere inside
					// one and may run a few lines past its end.
					regions := []struct{ base, lines int }{{0, 3}, {7, 40}, {64, 9}, {100, 300}, {500, 17}}
					for step := 0; step < 2000; step++ {
						core := r.intn(cfg.Cores)
						reg := regions[r.intn(len(regions))]
						start := reg.base + r.intn(reg.lines)
						n := 1 + r.intn(reg.lines)
						if r.intn(4) == 0 {
							n = 1 + r.intn(4)
						}
						addr := simmem.CodeBase + simmem.Addr(start*LineBytes+r.intn(LineBytes))
						got, want := h.FetchCode(core, addr, n), ref.fetch(core, addr, n)
						if got != want {
							t.Fatalf("step %d core %d +%d x%d: stall %d, reference %d", step, core, start, n, got, want)
						}
						for c := 0; c < cfg.Cores; c++ {
							if h.Counts(c) != ref.counts[c] {
								t.Fatalf("step %d core %d +%d x%d: core %d counts\n got  %+v\n want %+v",
									step, core, start, n, c, h.Counts(c), ref.counts[c])
							}
						}
						sameLines := func(which string, got, want []uint64) {
							if !slices.Equal(got, want) {
								t.Fatalf("step %d core %d +%d x%d: %s contents differ\n got  %v\n want %v",
									step, core, start, n, which, got, want)
							}
						}
						sameLines("L1I", h.cores[core].l1i.resident(), residentLines(ref.l1i[core]))
						sameLines("L2", residentLines(h.cores[core].l2), residentLines(ref.l2[core]))
						s := h.SocketOf(core)
						sameLines("LLC", residentLines(h.llcs[s]), residentLines(ref.llc[s]))
					}
				})
			}
		}
	}
}
