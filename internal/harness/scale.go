// Package harness turns the library into the paper: it defines one
// experiment cell per (system, workload, scale) combination, runs cells with
// the paper's protocol (populate untraced, warm up, measure a counter
// window), caches results within a run, and renders every table and figure
// of the paper from the cached measurements.
package harness

import "fmt"

// SizeLabel names a database size from the paper's x-axes.
type SizeLabel string

// The paper's database sizes.
const (
	Size1MB   SizeLabel = "1MB"
	Size10MB  SizeLabel = "10MB"
	Size10GB  SizeLabel = "10GB"
	Size100GB SizeLabel = "100GB"
)

// SizeLabels returns the paper's sizes in axis order.
func SizeLabels() []SizeLabel { return []SizeLabel{Size1MB, Size10MB, Size10GB, Size100GB} }

// Scale maps paper sizes to materialized proxy sizes and scales transaction
// counts. Sizes at or under the 20MB LLC are materialized exactly; the 10GB
// and 100GB points use proxies that stay far above LLC capacity: a uniform
// random probe misses the LLC with >= 90% probability at these proxy sizes,
// which is the only property the paper's large sizes exercise.
type Scale struct {
	Name string
	// Bytes maps each paper size label to the materialized byte target.
	Bytes map[SizeLabel]int64
	// TxFactor scales the default warm-up/measure transaction counts.
	TxFactor float64
	// MTCores is the core count for the multi-threaded experiments.
	MTCores int
}

// QuickScale is used by tests and testing.B benchmarks: small proxies, few
// transactions, still on the right side of every cache-capacity cliff.
func QuickScale() Scale {
	return Scale{
		Name: "quick",
		Bytes: map[SizeLabel]int64{
			Size1MB:   1 << 20,
			Size10MB:  10 << 20,
			Size10GB:  96 << 20,
			Size100GB: 160 << 20,
		},
		TxFactor: 0.25,
		MTCores:  2,
	}
}

// DefaultScale is the `-scale default` profile: the full warm-up/measure
// transaction counts over proxies between QuickScale's and FullScale's.
func DefaultScale() Scale {
	return Scale{
		Name: "default",
		Bytes: map[SizeLabel]int64{
			Size1MB:   1 << 20,
			Size10MB:  10 << 20,
			Size10GB:  192 << 20,
			Size100GB: 448 << 20,
		},
		TxFactor: 1,
		MTCores:  4,
	}
}

// FullScale doubles the large proxies for tighter LLC-miss asymptotics at
// the cost of longer populations.
func FullScale() Scale {
	return Scale{
		Name: "full",
		Bytes: map[SizeLabel]int64{
			Size1MB:   1 << 20,
			Size10MB:  10 << 20,
			Size10GB:  384 << 20,
			Size100GB: 1 << 30,
		},
		TxFactor: 1.5,
		MTCores:  4,
	}
}

// ScaleByName resolves quick/default/full.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "default", "":
		return DefaultScale(), nil
	case "full":
		return FullScale(), nil
	}
	return Scale{}, fmt.Errorf("harness: unknown scale %q (quick|default|full)", name)
}

// Bytes-per-row footprint models used to convert byte targets into
// cardinalities. They fold in tuple bytes, index entries and structure
// amplification, and are validated by TestSizingModelMatchesArena against
// the arena's actual allocation.
const (
	microLongBytesPerRow   = 128
	microStringBytesPerRow = 384
	tpcbBytesPerAccount    = 96
	tpccBytesPerWarehouse  = 6 << 20
)

// MicroRows converts a byte target to a micro-table cardinality.
func MicroRows(bytes int64, stringKeys bool) int64 {
	per := int64(microLongBytesPerRow)
	if stringKeys {
		per = microStringBytesPerRow
	}
	rows := bytes / per
	if rows < 1024 {
		rows = 1024
	}
	return rows
}

// TPCBBranches converts a byte target to a branch count (accounts dominate:
// 100k per branch at spec scaling).
func TPCBBranches(bytes int64) int {
	accounts := bytes / tpcbBytesPerAccount
	b := int(accounts / 100_000)
	if b < 1 {
		b = 1
	}
	return b
}

// TPCCWarehouses converts a byte target to a warehouse count, rounded to a
// multiple of parts so partitioned engines can split evenly.
func TPCCWarehouses(bytes int64, parts int) int {
	w := int(bytes / tpccBytesPerWarehouse)
	if w < 1 {
		w = 1
	}
	if parts > 1 {
		if w < parts {
			w = parts
		}
		w -= w % parts
	}
	return w
}
