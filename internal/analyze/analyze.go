// Package analyze re-analyzes persisted request logs (internal/olog)
// offline, the way warp's analyze/compare re-examine a recorded benchmark:
// exact coordinated-omission-corrected quantiles recomputed from raw
// records (no histogram bucketing), fixed-time segments with
// fastest/median/slowest windows, and per-shard / per-archetype
// breakdowns. Compare (compare.go) diffs two analyzed runs and renders a
// pass/REGRESSION verdict against a fractional threshold per gated metric.
package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"oltpsim/internal/olog"
)

// Options shapes an analysis.
type Options struct {
	// Segments is how many fixed-time segments the covered window is cut
	// into (default 8).
	Segments int
}

// coveredWarn is the covered-window fraction below which a run is flagged
// as under-covered (it ended early via drain or socket error).
const coveredWarn = 0.95

// Stats aggregates one population of requests. Quantiles are exact
// (nearest-rank over the sorted raw coordinated-omission-corrected
// latencies of serviced requests), not histogram approximations.
type Stats struct {
	Ops      uint64 `json:"ops"`    // serviced requests (committed + aborted)
	Errors   uint64 `json:"errors"` // aborted requests (included in Ops)
	Overload uint64 `json:"overload"`
	Drain    uint64 `json:"drain"`
	// Throughput is serviced ops per second of covered window.
	Throughput float64       `json:"ops_per_sec"`
	Mean       time.Duration `json:"mean_ns"`
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	P999       time.Duration `json:"p999_ns"`
	Max        time.Duration `json:"max_ns"`
}

// Segment is one fixed-time slice of the covered window.
type Segment struct {
	Index int `json:"index"`
	// StartNs is the segment's offset from the start of the measurement
	// window.
	StartNs int64 `json:"start_ns"`
	Stats
}

// Group is a per-shard or per-archetype breakdown row.
type Group struct {
	Key string `json:"key"`
	Stats
}

// Result is a full analysis of one request log.
type Result struct {
	File   string  `json:"file"`
	Spec   string  `json:"spec"`
	Shards int     `json:"shards"`
	Conns  int     `json:"conns"`
	Rate   float64 `json:"rate"` // offered ops/s; 0 = closed loop
	Seed   uint64  `json:"seed"`

	// WindowNs is the nominal measurement window; CoveredNs the span
	// actually covered (first scheduled arrival to last completion inside
	// the window), Covered the fraction.
	WindowNs  int64   `json:"window_ns"`
	CoveredNs int64   `json:"covered_ns"`
	Covered   float64 `json:"covered"`

	// Records counts every record in the file (warmup included); the rest
	// of the analysis covers measured records only.
	Records   int    `json:"records"`
	MultiPart uint64 `json:"multi_part"`

	Total    Stats     `json:"total"`
	Segments []Segment `json:"segments"`
	// Fastest/Median/Slowest index into Segments by throughput rank
	// (-1 when there are no segments).
	Fastest int `json:"fastest"`
	Median  int `json:"median"`
	Slowest int `json:"slowest"`

	Shard []Group `json:"per_shard"`
	Proc  []Group `json:"per_archetype"`
}

// Analyze computes the full offline analysis of one decoded request log.
func Analyze(hdr *olog.Header, recs []olog.Rec, opt Options) *Result {
	if opt.Segments <= 0 {
		opt.Segments = 8
	}
	res := &Result{
		Spec:     hdr.Spec,
		Shards:   hdr.Shards,
		Conns:    hdr.Conns,
		Rate:     hdr.Rate,
		Seed:     hdr.Seed,
		WindowNs: hdr.MeasureNs,
		Records:  len(recs),
		Fastest:  -1,
		Median:   -1,
		Slowest:  -1,
	}

	// The covered window: from the start of the measurement window to the
	// last measured completion (mirrors the driver's covered-window clamp).
	var lastDone int64
	measured := recs[:0:0]
	for _, r := range recs {
		if !r.Measured() {
			continue
		}
		measured = append(measured, r)
		if r.Serviced() && r.Done > lastDone {
			lastDone = r.Done
		}
		if r.MultiPart() && r.Status == olog.StatusOK {
			res.MultiPart++
		}
	}
	covered := lastDone - hdr.WarmupNs
	if covered <= 0 || covered > hdr.MeasureNs {
		covered = hdr.MeasureNs
	}
	res.CoveredNs = covered
	if hdr.MeasureNs > 0 {
		res.Covered = float64(covered) / float64(hdr.MeasureNs)
	}

	sec := float64(covered) / 1e9
	res.Total = statsOf(measured, sec)

	// Fixed-time segments over the covered window, bucketed by completion
	// time relative to the start of the measurement window.
	n := opt.Segments
	if int64(n) > covered/int64(time.Millisecond) && covered > 0 {
		// Don't cut a tiny window into sub-millisecond slivers.
		n = int(covered / int64(time.Millisecond))
		if n < 1 {
			n = 1
		}
	}
	segRecs := make([][]olog.Rec, n)
	width := covered / int64(n)
	if width <= 0 {
		width = 1
	}
	for _, r := range measured {
		i := int((r.Done - hdr.WarmupNs) / width)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		segRecs[i] = append(segRecs[i], r)
	}
	segSec := float64(width) / 1e9
	for i, rs := range segRecs {
		res.Segments = append(res.Segments, Segment{
			Index:   i,
			StartNs: int64(i) * width,
			Stats:   statsOf(rs, segSec),
		})
	}
	if len(res.Segments) > 0 {
		byTput := make([]int, len(res.Segments))
		for i := range byTput {
			byTput[i] = i
		}
		sort.SliceStable(byTput, func(a, b int) bool {
			return res.Segments[byTput[a]].Throughput > res.Segments[byTput[b]].Throughput
		})
		res.Fastest = byTput[0]
		res.Median = byTput[len(byTput)/2]
		res.Slowest = byTput[len(byTput)-1]
	}

	res.Shard = groupBy(measured, sec, func(r olog.Rec) string {
		return strconv.Itoa(int(r.Shard))
	})
	res.Proc = groupBy(measured, sec, func(r olog.Rec) string {
		return hdr.ProcName(r.Proc)
	})
	return res
}

// statsOf computes Stats over one record population. sec is the wall span
// the population's throughput is normalized by.
func statsOf(recs []olog.Rec, sec float64) Stats {
	var s Stats
	lats := make([]int64, 0, len(recs))
	var sum int64
	for _, r := range recs {
		switch r.Status {
		case olog.StatusOverload:
			s.Overload++
			continue
		case olog.StatusDrain:
			s.Drain++
			continue
		}
		s.Ops++
		if r.Status == olog.StatusAbort {
			s.Errors++
		}
		lat := r.Latency()
		if lat < 0 {
			lat = 0
		}
		lats = append(lats, lat)
		sum += lat
	}
	if len(lats) == 0 {
		return s
	}
	if sec > 0 {
		s.Throughput = float64(s.Ops) / sec
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.Mean = time.Duration(sum / int64(len(lats)))
	s.P50 = time.Duration(rank(lats, 0.5))
	s.P90 = time.Duration(rank(lats, 0.9))
	s.P99 = time.Duration(rank(lats, 0.99))
	s.P999 = time.Duration(rank(lats, 0.999))
	s.Max = time.Duration(lats[len(lats)-1])
	return s
}

// rank is the nearest-rank quantile over a sorted slice.
func rank(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func groupBy(recs []olog.Rec, sec float64, key func(olog.Rec) string) []Group {
	buckets := make(map[string][]olog.Rec)
	for _, r := range recs {
		k := key(r)
		buckets[k] = append(buckets[k], r)
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	// Numeric keys (shards) sort numerically, names lexically.
	sort.Slice(keys, func(i, j int) bool {
		a, aerr := strconv.Atoi(keys[i])
		b, berr := strconv.Atoi(keys[j])
		if aerr == nil && berr == nil {
			return a < b
		}
		return keys[i] < keys[j]
	})
	groups := make([]Group, 0, len(keys))
	for _, k := range keys {
		groups = append(groups, Group{Key: k, Stats: statsOf(buckets[k], sec)})
	}
	return groups
}

// AnalyzeFile reads and analyzes a request log from disk.
func AnalyzeFile(path string, opt Options) (*Result, error) {
	hdr, recs, err := olog.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := Analyze(hdr, recs, opt)
	res.File = path
	return res, nil
}

// WriteText renders the human-readable report.
func (r *Result) WriteText(w io.Writer) {
	mode := "closed-loop"
	if r.Rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f ops/s offered", r.Rate)
	}
	fmt.Fprintf(w, "olog: %s  %s  shards=%d conns=%d seed=%d  (%d records)\n",
		r.File, r.Spec, r.Shards, r.Conns, r.Seed, r.Records)
	fmt.Fprintf(w, "  mode       %s\n", mode)
	fmt.Fprintf(w, "  window     %.2fs nominal, %.2fs covered (%.0f%%)",
		time.Duration(r.WindowNs).Seconds(), time.Duration(r.CoveredNs).Seconds(), r.Covered*100)
	if r.Covered < coveredWarn {
		fmt.Fprintf(w, "  ** UNDER-COVERED: run ended early **")
	}
	fmt.Fprintln(w)
	t := r.Total
	fmt.Fprintf(w, "  total      %d ops (%d errors, %d overload, %d drain)  %.0f ops/s",
		t.Ops, t.Errors, t.Overload, t.Drain, t.Throughput)
	if r.MultiPart > 0 {
		fmt.Fprintf(w, "  %d 2pc", r.MultiPart)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  latency    mean %s  p50 %s  p90 %s  p99 %s  p999 %s  max %s  (CO-corrected, exact)\n",
		fmtNs(t.Mean), fmtNs(t.P50), fmtNs(t.P90), fmtNs(t.P99), fmtNs(t.P999), fmtNs(t.Max))

	if len(r.Segments) > 0 {
		width := time.Duration(0)
		if len(r.Segments) > 1 {
			width = time.Duration(r.Segments[1].StartNs - r.Segments[0].StartNs)
		} else {
			width = time.Duration(r.CoveredNs)
		}
		fmt.Fprintf(w, "  segments   %d × %s\n", len(r.Segments), fmtNs(width))
		fmt.Fprintf(w, "    %4s %10s %8s %10s %10s %10s\n", "seg", "t0", "ops", "ops/s", "p50", "p99")
		for _, s := range r.Segments {
			tag := ""
			switch s.Index {
			case r.Fastest:
				tag = "  fastest"
			case r.Slowest:
				tag = "  slowest"
			case r.Median:
				tag = "  median"
			}
			fmt.Fprintf(w, "    %4d %10s %8d %10.0f %10s %10s%s\n",
				s.Index, fmtNs(time.Duration(s.StartNs)), s.Ops, s.Throughput, fmtNs(s.P50), fmtNs(s.P99), tag)
		}
	}
	writeGroups(w, "per-shard", r.Shard)
	writeGroups(w, "per-archetype", r.Proc)
}

func writeGroups(w io.Writer, title string, groups []Group) {
	if len(groups) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s\n", title)
	fmt.Fprintf(w, "    %-16s %8s %8s %10s %10s %10s\n", "key", "ops", "errors", "ops/s", "p50", "p99")
	for _, g := range groups {
		fmt.Fprintf(w, "    %-16s %8d %8d %10.0f %10s %10s\n",
			g.Key, g.Ops, g.Errors, g.Throughput, fmtNs(g.P50), fmtNs(g.P99))
	}
}

func fmtNs(d time.Duration) string {
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return d.Round(time.Millisecond).String()
	}
}

// WriteJSON renders the full Result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Format writes the result in the named format ("text" or "json").
func (r *Result) Format(w io.Writer, format string) error {
	switch strings.ToLower(format) {
	case "", "text":
		r.WriteText(w)
		return nil
	case "json":
		return r.WriteJSON(w)
	}
	return fmt.Errorf("analyze: unknown format %q (text, json)", format)
}
