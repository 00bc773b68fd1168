package main

import (
	"math"
	"sort"

	"oltpsim/internal/olog"
)

// openStats is the accounting of one open-loop window, computed from the
// request log rather than from driver.Report: the report counts every
// request *scheduled* in the window as completed in it, even when it
// completes seconds later, so an overloaded step would read as serving its
// offered rate. Here throughput counts completions that land inside the
// window, latency runs from the scheduled send, and a request that failed,
// was shed or refused misses every limit.
type openStats struct {
	offered     int     // requests scheduled inside the window
	failed      int     // of those: answered with anything but OK
	completedOK int     // OK completions that landed inside the window
	throughput  float64 // completedOK per second of window
	lat         latencyStats
	sloOKFrac   float64 // offered requests answered OK within sloNs of schedule
	rateOKFrac  float64 // ... within rateNs of schedule
	backlog     bool    // the tail of the window completed < 95% of what it was offered
	lagP50Us    float64 // sender lag: actual send minus scheduled send
	lagP99Us    float64
}

// openWindow accounts the records of one run over its measurement window
// [warmNs, endNs), times in nanoseconds since the run's base.
func openWindow(recs []olog.Rec, warmNs, endNs, sloNs, rateNs int64) openStats {
	var st openStats
	// The backlog probe looks at the last second (or the last half of a
	// shorter window): a queue that grows shows as completions falling behind
	// the schedule there.
	tailFrom := max(endNs-1e9, (warmNs+endNs)/2)
	var tailOffered, tailDone, sloOK, rateOK int
	var lats, lags []float64
	for _, r := range recs {
		ok := r.Status == olog.StatusOK
		if ok && r.Done >= warmNs && r.Done < endNs {
			st.completedOK++
			if r.Done >= tailFrom {
				tailDone++
			}
		}
		if r.Sched < warmNs || r.Sched >= endNs {
			continue
		}
		st.offered++
		if r.Sched >= tailFrom {
			tailOffered++
		}
		lags = append(lags, float64(r.Start-r.Sched)/1e3)
		if !ok {
			st.failed++
			lats = append(lats, math.Inf(1))
			continue
		}
		l := r.Done - r.Sched
		lats = append(lats, float64(l)/1e3)
		if l <= sloNs {
			sloOK++
		}
		if l <= rateNs {
			rateOK++
		}
	}
	st.throughput = float64(st.completedOK) / (float64(endNs-warmNs) / 1e9)
	st.lat = summarize(lats)
	if st.offered > 0 {
		st.sloOKFrac = float64(sloOK) / float64(st.offered)
		st.rateOKFrac = float64(rateOK) / float64(st.offered)
	}
	st.backlog = float64(tailDone) < 0.95*float64(tailOffered)
	sort.Float64s(lags)
	st.lagP50Us, st.lagP99Us = quantile(lags, 0.5), quantile(lags, 0.99)
	return st
}

// rateOK reports whether a step met the open-loop limit: at least 99% of the
// offered requests answered OK within the limit, and no growing backlog. A
// backlogged step can never pass.
func (st openStats) rateOK() bool {
	return st.offered > 0 && st.rateOKFrac >= 0.99 && !st.backlog
}

// failedFrac is (errors + shed + refused + unanswered + failed checks) over
// attempted.
func failedFrac(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
