package main

import (
	"math"
	"strings"
	"testing"

	"oltpsim/internal/olog"
)

// The tests here are pure: no sockets, no wall clock, no simulation.

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.1, 10}, {0.11, 20}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100},
	} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g", got)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 1}, {39, 1}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {1 << 20, 0.99},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// At the chosen percentile at least ten samples lie beyond it.
	for n := 40; n < 5000; n += 7 {
		q := tailQuantile(n)
		if beyond := float64(n) * (1 - q); beyond < 10 {
			t.Fatalf("n=%d: p%g leaves %.1f samples beyond", n, q*100, beyond)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if m := median(v); m != 5.5 {
		t.Fatalf("median = %g, want 5.5", m)
	}
	if got := spread(v); got != 1 {
		t.Fatalf("spread = %g, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of three = %g, %g", q1, q3)
	}
}

func TestQuietDecilePicksTheQuietSide(t *testing.T) {
	// 25 sub-windows, 15 of them disturbed: a latency reads the first decile,
	// between the second and third best window (statistics.quantiles(v, n=10)[0]
	// is at position 2.6), and moves neither with the disturbed windows nor
	// with the luckiest one.
	var lat, worse, thr []float64
	for i := 0; i < 10; i++ {
		lat = append(lat, 20+float64(i))
		thr = append(thr, 100-float64(i))
	}
	for i := 0; i < 15; i++ {
		lat = append(lat, 40+float64(i))
		thr = append(thr, 60-float64(i))
	}
	worse = append(worse, lat[:10]...)
	for i := 0; i < 15; i++ {
		worse = append(worse, 400+float64(i))
	}
	lucky := append([]float64{2}, lat[1:]...)
	if got := quietDecile(lat, false); math.Abs(got-21.6) > 1e-9 {
		t.Errorf("first decile = %g, want 21.6", got)
	}
	if quietDecile(worse, false) != quietDecile(lat, false) || quietDecile(lucky, false) != quietDecile(lat, false) {
		t.Error("the first decile moved with the disturbed or the luckiest window")
	}
	if got := quietDecile(thr, true); math.Abs(got-98.4) > 1e-9 {
		t.Errorf("ninth decile = %g, want 98.4", got)
	}
	// Fewer than ten values: the best of them, never a value beyond it.
	if got := quietDecile([]float64{1.7, 1.5, 1.6}, false); got != 1.5 {
		t.Errorf("of three = %g, want 1.5", got)
	}
	if got := quietDecile([]float64{5, 9, 7, 8, 6}, true); got != 9 {
		t.Errorf("of five = %g, want 9", got)
	}
	if got := quietDecile(nil, false); got != 0 {
		t.Errorf("of nothing = %g", got)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "encode", Start: 10, End: 30, Parent: 0, Req: 1},
		{Name: "wait", Start: 20, End: 60, Parent: 0, Req: 1},  // overlaps encode: counted once
		{Name: "wait", Start: 90, End: 120, Parent: 0, Req: 1}, // clipped to the parent
		{Name: "syscall", Start: 25, End: 35, Parent: 2, Req: 1},
		{Name: "open", Start: 50, End: -1, Parent: 0, Req: 1}, // unfinished: skipped
	}
	st := selfTimes(spans)
	if got := st["request"]; got.Count != 1 || got.Total != 100 || got.Self != 100-50-10 {
		t.Errorf("request = %+v, want total 100 self 40", got)
	}
	if got := st["wait"]; got.Count != 2 || got.Total != 70 || got.Self != 60 {
		t.Errorf("wait = %+v, want total 70 self 60", got)
	}
	if got := st["encode"]; got.Self != 20 {
		t.Errorf("encode = %+v, want self 20", got)
	}
	if _, ok := st["open"]; ok {
		t.Error("an unfinished span was counted")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, 0)
	tr.end(i)
	if i != -1 || tr.seconds(i) != 0 {
		t.Fatalf("nil tracer returned span %d", i)
	}
}

// rec builds a record with times in milliseconds.
func rec(sched, start, done float64, st olog.Status) olog.Rec {
	return olog.Rec{Sched: int64(sched * 1e6), Start: int64(start * 1e6), Done: int64(done * 1e6), Status: st}
}

func TestOpenWindowAccounting(t *testing.T) {
	// Window [1000ms, 3000ms), SLO 5ms, rate limit 10ms.
	recs := []olog.Rec{
		rec(500, 500, 501, olog.StatusOK),            // warm-up: not offered, not completed inside
		rec(990, 990, 1001, olog.StatusOK),           // scheduled before, completes inside: throughput only
		rec(1000, 1000, 1002, olog.StatusOK),         // 2ms: meets both limits
		rec(1100, 1101, 1107, olog.StatusOK),         // 7ms: misses the SLO, meets the rate limit, lag 1ms
		rec(1200, 1200, 1215, olog.StatusOK),         // 15ms: misses both
		rec(1300, 1300, 1301, olog.StatusAbort),      // failed fast: misses every limit
		rec(1400, 1400, 1400.5, olog.StatusOverload), // shed: misses every limit
		rec(2900, 2900, 3100, olog.StatusOK),         // scheduled inside, completes after the window
	}
	st := openWindow(recs, 1000e6, 3000e6, 5e6, 10e6)
	if st.offered != 6 || st.failed != 2 {
		t.Fatalf("offered %d failed %d, want 6 and 2", st.offered, st.failed)
	}
	if st.completedOK != 4 || st.throughput != 2 {
		t.Fatalf("completedOK %d throughput %g, want 4 and 2/s", st.completedOK, st.throughput)
	}
	if st.sloOKFrac != 1.0/6 || st.rateOKFrac != 2.0/6 {
		t.Fatalf("slo %g rate %g, want 1/6 and 2/6", st.sloOKFrac, st.rateOKFrac)
	}
	// A failed request's latency is infinite, so it owns the tail.
	if !math.IsInf(st.lat.tail, 1) {
		t.Fatalf("tail = %g, want +Inf from the failed requests", st.lat.tail)
	}
	if st.lagP99Us != 1000 {
		t.Fatalf("sender lag p99 = %g us, want 1000", st.lagP99Us)
	}
	if st.rateOK() {
		t.Fatal("a step with a third of its requests inside the limit passed")
	}
}

func TestBackloggedStepNeverPasses(t *testing.T) {
	// 100 requests/s offered over [0, 2s); every answer is OK and fast
	// relative to the limit, but the last second completes half its offer.
	var recs []olog.Rec
	for i := 0; i < 200; i++ {
		sched := float64(i) * 10
		done := sched + 1
		if i >= 100 && i%2 == 1 {
			done = 2500 // lands after the window
		}
		recs = append(recs, rec(sched, sched, done, olog.StatusOK))
	}
	st := openWindow(recs, 0, 2000e6, 5e6, 1e12)
	if st.rateOKFrac != 1 || !st.backlog {
		t.Fatalf("rateOKFrac %g backlog %v, want 1 and true", st.rateOKFrac, st.backlog)
	}
	if st.rateOK() {
		t.Fatal("a backlogged step passed")
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(3, 1000); got != 0.003 {
		t.Errorf("failedFrac(3, 1000) = %g", got)
	}
	if got := failedFrac(0, 0); got != 1 {
		t.Errorf("nothing attempted must read as all failed, got %g", got)
	}
}

func TestJudgeAgainstBound(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		new    []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"same", []float64{100, 100, 101, 99, 100}, false, 0.10, verdictWithin},
		{"slower inside the bound", []float64{105, 106, 104, 105, 107}, false, 0.10, verdictWithin},
		{"slower beyond the bound", []float64{115, 116, 114, 115, 117}, false, 0.10, verdictWorse},
		{"lower latency", []float64{90, 91, 89, 90, 92}, false, 0.10, verdictBetter},
		{"lower throughput beyond the bound", []float64{85, 86, 84, 85, 87}, true, 0.10, verdictWorse},
		{"higher throughput", []float64{110, 111, 109, 110, 112}, true, 0.10, verdictBetter},
		{"spread wider than the bound", []float64{80, 120, 100, 60, 140}, false, 0.10, verdictUnresolved},
		{"wide spread but every run better", []float64{40, 80, 60, 50, 70}, false, 0.10, verdictBetter},
	} {
		if got := judge(base, c.new, c.higher, c.bound); got.verdict != c.want {
			t.Errorf("%s: %s (worse by %.3f, spreads %.3f/%.3f), want %s", c.name, got.verdict, got.worse, got.oldSpread, got.newSpread, c.want)
		}
	}
}

func TestFirstDivergence(t *testing.T) {
	want := "== Figure 1: title ==\nA  B\n1  2\n\n"
	if d := firstDivergence(want, want); d != "" {
		t.Errorf("equal texts diverge: %s", d)
	}
	if d := firstDivergence(strings.Replace(want, "1  2", "1  3", 1), want); !strings.HasPrefix(d, "line 3:") || !strings.Contains(d, `"1  3"`) {
		t.Errorf("changed cell: %s", d)
	}
	if d := firstDivergence(want+"extra\n", want); !strings.HasPrefix(d, "length differs") && !strings.HasPrefix(d, "line 5") {
		t.Errorf("longer text: %s", d)
	}
}

func TestGoldenSections(t *testing.T) {
	text := "== Figure T1: params ==\na\n\n== Figure 1: ipc ==\nb\nnote: x\n\n== Figure 10: tpcc ==\nc\n\n"
	s := goldenSections(text)
	if len(s) != 3 || s["T1"] != "== Figure T1: params ==\na\n\n" || s["1"] != "== Figure 1: ipc ==\nb\nnote: x\n\n" || s["10"] != "== Figure 10: tpcc ==\nc\n\n" {
		t.Fatalf("sections = %q", s)
	}
}

func TestFigurePlanIsAPinnedPrefix(t *testing.T) {
	short, long := figurePlan(1), figurePlan(10)
	if len(short) != 2 {
		t.Fatalf("the shortest plan has %d figures, want 2", len(short))
	}
	if len(long) <= len(short) || len(long) > len(figureList) {
		t.Fatalf("10s plan has %d figures", len(long))
	}
	total := 0.0
	for i, f := range long {
		if f != figureList[i] {
			t.Fatalf("plan is not a prefix of the pinned list at %d", i)
		}
		total += f.refSeconds
	}
	if total > 10 {
		t.Fatalf("10s plan costs %.2fs at reference speed", total)
	}
}
