package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending) values:
// the smallest value with at least q of the sample at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9)) // 0.9*100 is a hair above 90
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// median returns the middle value of v (the mean of the middle two for an
// even count), as Python's statistics.median does.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailLadder is the fixed set of percentiles a tail latency may be reported
// at. A fixed ladder keeps the reported percentile from drifting with the
// sample count from run to run.
var tailLadder = []int{99, 95, 90, 75}

// tailQuantile picks the highest ladder percentile that still has at least
// ten samples beyond it; with too few samples for any rung it returns 1 (the
// maximum), which callers report as such.
func tailQuantile(n int) float64 {
	for _, p := range tailLadder {
		if n*(100-p) >= 10*100 {
			return float64(p) / 100
		}
	}
	return 1
}

// latencyStats is the median and supported tail of one latency sample.
type latencyStats struct {
	n      int
	p50    float64
	tail   float64
	tailAt float64 // the percentile tail was read at (1 = maximum)
}

func summarize(samples []float64) latencyStats {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	return latencyStats{n: len(s), p50: quantile(s, 0.5), tail: quantile(s, q), tailAt: q}
}

// cut returns the i-th of the n-1 points that cut v into n groups of equal
// probability, the way Python's statistics.quantiles(v, n=n) does (exclusive
// method), so spreads computed here match the ones the acceptance check
// computes. Like Python's, a cut beyond the outermost values continues their
// line.
func cut(v []float64, i, n int) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := float64(i) * float64(len(s)+1) / float64(n)
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// quartiles returns the first and third quartile.
func quartiles(v []float64) (q1, q3 float64) { return cut(v, 1, 4), cut(v, 3, 4) }

// quietDecile is the statistic a run reports over its sub-windows (and over
// its set-up repetitions): the ninth decile of a metric where higher is
// better, the first where lower is, never beyond the best value; with fewer
// than ten values it is the best of them. On a shared host interference
// comes in bursts of seconds and only ever slows a window down, so the
// quietest windows estimate the program's own speed far more steadily than
// the middle one does, while a regression in the program moves every window
// and the decile with them. The decile rather than the best window, so that
// with enough windows one lucky one cannot set the result.
func quietDecile(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	if higherIsBetter {
		return min(cut(v, 9, 10), slices.Max(v))
	}
	return max(cut(v, 1, 10), slices.Min(v))
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
