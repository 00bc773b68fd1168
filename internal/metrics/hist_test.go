package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestBucketBounds proves the bucket map is a partition of the value space:
// every bucket's bounds invert bucketOf at both edges, buckets tile the
// range with no gaps, and widths follow the log-linear scheme.
func TestBucketBounds(t *testing.T) {
	prevHi := uint64(0)
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo = %d, want %d (no gaps/overlap)", i, lo, prevHi)
		}
		if hi <= lo && !(i == NumBuckets-1 && hi == 0) {
			t.Fatalf("bucket %d: empty range [%d, %d)", i, lo, hi)
		}
		if bucketOf(lo) != i {
			t.Fatalf("bucketOf(lo=%d) = %d, want %d", lo, bucketOf(lo), i)
		}
		if bucketOf(hi-1) != i {
			t.Fatalf("bucketOf(hi-1=%d) = %d, want %d", hi-1, bucketOf(hi-1), i)
		}
		prevHi = hi
	}
	// The last bucket's hi wraps to 0: the layout covers all of uint64.
	if prevHi != 0 {
		t.Fatalf("layout does not cover uint64: final hi = %d", prevHi)
	}
}

// TestBucketWidths spot-checks the log-linear structure: exact single-unit
// buckets below histSub, then 2^k-wide buckets in octave k.
func TestBucketWidths(t *testing.T) {
	for _, v := range []uint64{0, 1, 63} {
		lo, hi := BucketBounds(bucketOf(v))
		if lo != v || hi != v+1 {
			t.Fatalf("value %d: bucket [%d,%d), want exact [%d,%d)", v, lo, hi, v, v+1)
		}
	}
	for _, tc := range []struct {
		v     uint64
		width uint64
	}{{64, 1}, {127, 1}, {128, 2}, {255, 2}, {256, 4}, {1 << 20, 1 << 14}} {
		lo, hi := BucketBounds(bucketOf(tc.v))
		if hi-lo != tc.width {
			t.Fatalf("value %d: bucket width %d, want %d", tc.v, hi-lo, tc.width)
		}
		if tc.v < lo || tc.v >= hi {
			t.Fatalf("value %d not in its bucket [%d,%d)", tc.v, lo, hi)
		}
	}
	// Relative error of the quantization is bounded by 1/histSub.
	for _, v := range []uint64{1000, 123456, 987654321, 1 << 40} {
		lo, hi := BucketBounds(bucketOf(v))
		if rel := float64(hi-lo) / float64(lo); rel > 1.0/histSub*1.001 {
			t.Fatalf("value %d: relative bucket width %.4f exceeds 1/%d", v, rel, histSub)
		}
	}
}

// TestQuantileExact: small-value recordings live in one-unit buckets, so
// quantiles are exact up to the sub-unit interpolation offset.
func TestQuantileExact(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 10; v++ {
		h.Record(v)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 0}, {0.5, 4}, {0.99, 9}, {1, 9}} {
		got := h.Quantile(tc.q)
		if got < tc.want || got >= tc.want+1 {
			t.Fatalf("Quantile(%g) = %g, want in [%g, %g)", tc.q, got, tc.want, tc.want+1)
		}
	}
	if h.Count() != 10 || h.Sum() != 45 || h.Max() != 9 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 10/45/9", h.Count(), h.Sum(), h.Max())
	}
	if m := h.Mean(); m != 4.5 {
		t.Fatalf("Mean = %g, want 4.5", m)
	}
}

// TestQuantileInterpolation: a uniform recording over a wide range must
// report quantiles within one bucket width (1/64 relative) of the truth.
func TestQuantileInterpolation(t *testing.T) {
	var h Histogram
	const n = 100_000
	for i := uint64(1); i <= n; i++ {
		h.Record(i * 1000) // 1e3 .. 1e8, uniformly
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := q * n * 1000
		if rel := math.Abs(got-want) / want; rel > 2.0/histSub {
			t.Fatalf("Quantile(%g) = %g, want %g ±%.1f%% (got %.2f%% off)",
				q, got, want, 200.0/histSub, rel*100)
		}
	}
	if h.Quantile(1) > float64(h.Max()+1) {
		t.Fatalf("Quantile(1) = %g beyond max %d", h.Quantile(1), h.Max())
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %g, want 0", got)
	}
	h.Record(5_000_000)
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		lo, hi := BucketBounds(bucketOf(5_000_000))
		if got < float64(lo) || got > float64(hi) {
			t.Fatalf("single-value Quantile(%g) = %g outside bucket [%d,%d]", q, got, lo, hi)
		}
	}
}

func TestMergeAndReset(t *testing.T) {
	var a, b Histogram
	for i := uint64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Max() != b.Max() {
		t.Fatalf("merged max = %d, want %d", a.Max(), b.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 || a.Max() != 0 || a.Quantile(0.5) != 0 {
		t.Fatal("Reset did not zero the histogram")
	}
}

// TestRecordConcurrent drives Record from several goroutines under the race
// detector and checks conservation of the total count.
func TestRecordConcurrent(t *testing.T) {
	var h Histogram
	const gs, per = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(uint64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != gs*per {
		t.Fatalf("count = %d, want %d", h.Count(), gs*per)
	}
}

// TestRecordAllocs is the satellite gate: the latency record path must not
// allocate — it runs once per operation on every driver connection and every
// shard worker.
func TestRecordAllocs(t *testing.T) {
	var h Histogram
	v := uint64(12345)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 997
	}); avg != 0 {
		t.Fatalf("Histogram.Record allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = h.Quantile(0.99)
	}); avg != 0 {
		t.Fatalf("Histogram.Quantile allocates %.1f times per op, want 0", avg)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Register("", "oltpd_tx_total", "counter", "transactions", func(emit func(Sample)) {
		emit(Sample{Name: "oltpd_tx_total", Labels: []Label{L("shard", "0")}, Value: 42})
		emit(Sample{Name: "oltpd_tx_total", Labels: []Label{L("shard", "1")}, Value: 58})
	})

	text := r.Render()
	for _, want := range []string{
		"# TYPE oltpd_tx_total counter",
		`oltpd_tx_total{shard="0"} 42`,
		`oltpd_tx_total{shard="1"} 58`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered exposition missing %q:\n%s", want, text)
		}
	}

	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed[`oltpd_tx_total{shard="1"}`] != 58 {
		t.Fatalf("parsed shard 1 = %g, want 58", parsed[`oltpd_tx_total{shard="1"}`])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register("", "x", "gauge", "", func(func(Sample)) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	r.Register("g", "x", "gauge", "", func(func(Sample)) {})
}

// TestIntervalDeltaQuantiles is the timeline emitter's math, verified from
// first principles: snapshot a cumulative histogram at two interval edges,
// subtract bucket-wise, and the delta's quantiles must agree with (a) a
// from-scratch histogram fed only the interval's values — bucket-exact —
// and (b) a naive sorted-slice quantile of those values, within the
// histogram's 1/64 relative quantization bound.
func TestIntervalDeltaQuantiles(t *testing.T) {
	rng := uint64(0x5eed)
	next := func() uint64 {
		// splitmix64, values spread across several octaves like latencies.
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return (z ^ (z >> 31)) % 50_000_000
	}

	cum := &Histogram{}
	for i := 0; i < 4000; i++ { // interval 1: background the delta must exclude
		cum.Record(next())
	}
	var s1 [NumBuckets]uint64
	n1 := cum.CopyCounts(&s1)
	if n1 != 4000 {
		t.Fatalf("snapshot 1 count = %d, want 4000", n1)
	}

	fresh := &Histogram{} // the from-scratch reference over interval 2 only
	var vals []uint64
	for i := 0; i < 2500; i++ {
		v := next()
		cum.Record(v)
		fresh.Record(v)
		vals = append(vals, v)
	}
	var s2, delta [NumBuckets]uint64
	cum.CopyCounts(&s2)
	if n := SubCounts(&delta, &s2, &s1); n != 2500 {
		t.Fatalf("delta count = %d, want 2500", n)
	}

	// (a) bucket-exact agreement with the from-scratch histogram.
	var freshCounts [NumBuckets]uint64
	fresh.CopyCounts(&freshCounts)
	if delta != freshCounts {
		t.Fatal("delta bucket counts differ from a from-scratch histogram of the same values")
	}

	// (b) quantiles agree with a naive sort within quantization error.
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		got := CountsQuantile(&delta, q)
		rank := int(math.Ceil(q * float64(len(vals))))
		if rank < 1 {
			rank = 1
		}
		exact := float64(vals[rank-1])
		lo, hi := BucketBounds(bucketOf(uint64(exact)))
		if got < float64(lo)-1 || got > float64(hi)+1 {
			t.Fatalf("q=%g: delta quantile %.0f outside exact value %.0f's bucket [%d,%d)",
				q, got, exact, lo, hi)
		}
		if exact > 0 {
			if rel := math.Abs(got-exact) / exact; rel > 2.0/histSub {
				t.Fatalf("q=%g: delta quantile %.0f vs exact %.0f, relative error %.4f > %.4f",
					q, got, exact, rel, 2.0/histSub)
			}
		}
	}

	// The delta and from-scratch quantile paths agree exactly except for the
	// from-scratch histogram's true-max clamp, which only tightens the top
	// bucket — below the max's bucket they are identical.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if d, f := CountsQuantile(&delta, q), fresh.Quantile(q); d != f {
			t.Fatalf("q=%g: CountsQuantile %.2f != fresh Histogram.Quantile %.2f", q, d, f)
		}
	}
}
