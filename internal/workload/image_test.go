package workload_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/simmem"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

var updatePopulatedImage = flag.Bool("update-populated-image", false,
	"rewrite testdata/populated_image.txt from this run (only on a deliberate re-baseline)")

const populatedImageFile = "testdata/populated_image.txt"

// imageWorkloads are the populations of the image fence. Sizes are the
// smallest at which every tree kind splits its root at least twice somewhere:
// the 8KB-page tree needs 130 817 ascending Long keys (micro-long, tpcb's
// accounts) or 9 871 String(50) keys (micro-string) to reach height 3; the
// cache-conscious trees get there within a few hundred rows, so the TPC-C
// and hybrid cells, whose page trees stay at height 2, still carry
// multi-level splits on VoltDB and DBMS M.
var imageWorkloads = []struct {
	name string
	opts systems.Options
	make func() workload.Workload
}{
	{"micro-long", systems.Options{Cores: 2}, func() workload.Workload {
		return workload.NewMicro(workload.MicroConfig{Rows: 132_000})
	}},
	{"micro-string", systems.Options{}, func() workload.Workload {
		return workload.NewMicro(workload.MicroConfig{Rows: 10_500, StringKeys: true})
	}},
	{"tpcb", systems.Options{Cores: 2}, func() workload.Workload {
		return workload.NewTPCB(workload.TPCBConfig{Branches: 2, AccountsPerBranch: 66_000})
	}},
	{"tpcc-1wh", systems.Options{}, func() workload.Workload {
		return workload.NewTPCC(imageTPCC(1))
	}},
	{"olap", systems.Options{Cores: 2}, func() workload.Workload {
		return workload.NewOLAP(workload.OLAPConfig{Rows: 20_000})
	}},
	{"hybrid-2s", systems.Options{Cores: 4, Sockets: 2, Placement: core.PlacePartitioned}, func() workload.Workload {
		return workload.NewHybrid(workload.HybridConfig{TPCC: imageTPCC(4), OLAPPercent: 50})
	}},
}

func imageTPCC(warehouses int) workload.TPCCConfig {
	return workload.TPCCConfig{Warehouses: warehouses, Items: 2000, CustomersPerDistrict: 60, OrdersPerDistrict: 60}
}

// TestPopulatedImage is the fast fence for the load path (Table.Load and
// everything below it): population is untraced, so what a change to it must
// hold is the populated image. For every archetype × workload cell it
// populates untraced and compares against testdata/populated_image.txt the
// top of the data segment and the bytes allocated, the number of materialized
// arena pages and an FNV-64a over their addresses and bytes, on a multi-socket
// cell a hash of every data line's home socket, per table and shard the
// index's entry count and height, and for the buffer-pool archetypes the
// pool's hits, misses, evictions and pinned pages (always 0). It asserts no
// wall-clock value. Never regenerate the file outside a deliberate
// re-baseline.
func TestPopulatedImage(t *testing.T) {
	names := make([]string, len(imageWorkloads))
	for i, wl := range imageWorkloads {
		names[i] = wl.name
	}
	runLineFence(t, populatedImageFile,
		"# system/workload top allocated pages image [homes] table=count/height per shard... [pool] (generated; see TestPopulatedImage)",
		*updatePopulatedImage, names, func(t *testing.T, kind systems.Kind, i int) string {
			return populatedImage(t, kind, imageWorkloads[i].opts, imageWorkloads[i].make())
		})
}

// populatedImage populates one engine untraced and renders the cell's line.
func populatedImage(t *testing.T, kind systems.Kind, opts systems.Options, w workload.Workload) string {
	t.Helper()
	e := populateUntraced(kind, opts, w)
	m := e.Machine().Arena

	var b strings.Builder
	h := fnv.New64a()
	pages := 0
	m.EachPage(func(base simmem.Addr, data []byte) {
		fmt.Fprintf(h, "%x:", uint64(base))
		h.Write(data)
		pages++
	})
	fmt.Fprintf(&b, "top=%#x allocated=%d pages=%d image=%016x", uint64(m.DataTop()), m.DataAllocated(), pages, h.Sum64())
	if opts.Sockets > 1 {
		h.Reset()
		for a := simmem.DataBase; a < m.DataTop(); a += core.LineBytes {
			h.Write([]byte{byte(e.Machine().Hier.HomeOf(a))})
		}
		fmt.Fprintf(&b, " homes=%016x", h.Sum64())
	}
	for _, tbl := range e.Tables() {
		fmt.Fprintf(&b, " %s=", tbl.Name)
		for p := 0; p < e.Partitions(); p++ {
			count, height := tbl.IndexShape(p)
			if p > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d/%d", count, height)
		}
	}
	if bp := e.BufferPool(); bp != nil {
		// Nothing was evicted, so the pages handed out are exactly the
		// resident ones, numbered from 1.
		pinned := 0
		for id := uint64(1); bp.Resident(id); id++ {
			pinned += bp.PinCount(id)
		}
		fmt.Fprintf(&b, " pool=hits:%d/misses:%d/evictions:%d/pinned:%d", bp.Hits, bp.Misses, bp.Evictions, pinned)
		if bp.Evictions != 0 || pinned != 0 {
			t.Errorf("pool evicted %d pages and holds %d pins after population, want 0 and 0", bp.Evictions, pinned)
		}
	}
	return b.String()
}
