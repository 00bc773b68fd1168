package analyze

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/olog"
)

// synthHeader describes a 1s-warmup, 4s-measure run over 2 shards.
func synthHeader() *olog.Header {
	return &olog.Header{
		Spec:      "micro:rows=1000",
		Shards:    2,
		Conns:     2,
		Rate:      1000,
		Seed:      7,
		WarmupNs:  int64(time.Second),
		MeasureNs: int64(4 * time.Second),
		Procs:     []string{"read", "update"},
	}
}

// synthRecs lays 1000 measured records evenly over the full window, shard
// and proc alternating, with latency = 1ms + (i%100)µs so quantiles are
// hand-computable.
func synthRecs() []olog.Rec {
	warm := int64(time.Second)
	var recs []olog.Rec
	for i := 0; i < 1000; i++ {
		sched := warm + int64(i)*int64(4*time.Millisecond)
		lat := int64(time.Millisecond) + int64(i%100)*int64(time.Microsecond)
		recs = append(recs, olog.Rec{
			Sched:  sched,
			Start:  sched,
			Done:   sched + lat,
			Shard:  uint16(i % 2),
			Proc:   uint16(i % 2),
			Status: olog.StatusOK,
			Flags:  olog.FlagMeasured,
		})
	}
	return recs
}

func TestAnalyzeTotals(t *testing.T) {
	hdr := synthHeader()
	recs := synthRecs()
	// Warmup traffic must be excluded from every population.
	recs = append(recs, olog.Rec{Sched: 0, Start: 0, Done: int64(time.Millisecond), Status: olog.StatusOK})
	res := Analyze(hdr, recs, Options{Segments: 4})

	if res.Records != 1001 {
		t.Fatalf("Records = %d, want 1001", res.Records)
	}
	if res.Total.Ops != 1000 || res.Total.Errors != 0 {
		t.Fatalf("Total = %+v, want 1000 ops, 0 errors", res.Total)
	}
	// Latencies are 1ms..1.099ms uniformly; nearest-rank p50 over i%100 is
	// the 500th of 1000 sorted values = 1ms + 49µs.
	if want := time.Millisecond + 49*time.Microsecond; res.Total.P50 != want {
		t.Fatalf("P50 = %v, want %v", res.Total.P50, want)
	}
	if want := time.Millisecond + 99*time.Microsecond; res.Total.Max != want {
		t.Fatalf("Max = %v, want %v", res.Total.Max, want)
	}
	if len(res.Segments) != 4 {
		t.Fatalf("got %d segments, want 4", len(res.Segments))
	}
	if res.Fastest < 0 || res.Slowest < 0 || res.Median < 0 {
		t.Fatalf("segment ranks unset: fastest %d median %d slowest %d", res.Fastest, res.Median, res.Slowest)
	}
	if len(res.Shard) != 2 || res.Shard[0].Key != "0" || res.Shard[1].Key != "1" {
		t.Fatalf("per-shard breakdown = %+v", res.Shard)
	}
	if res.Shard[0].Ops != 500 || res.Shard[1].Ops != 500 {
		t.Fatalf("per-shard ops = %d/%d, want 500/500", res.Shard[0].Ops, res.Shard[1].Ops)
	}
	if len(res.Proc) != 2 || res.Proc[0].Key != "read" || res.Proc[1].Key != "update" {
		t.Fatalf("per-archetype breakdown = %+v", res.Proc)
	}
	// The run covers the window fully (last completion at its end).
	if res.Covered < 0.99 {
		t.Fatalf("Covered = %v, want ~1", res.Covered)
	}
}

func TestAnalyzeStatuses(t *testing.T) {
	hdr := synthHeader()
	warm := hdr.WarmupNs
	recs := []olog.Rec{
		{Sched: warm + 1, Start: warm + 1, Done: warm + 100, Status: olog.StatusOK, Flags: olog.FlagMeasured},
		{Sched: warm + 2, Start: warm + 2, Done: warm + 200, Status: olog.StatusAbort, Flags: olog.FlagMeasured},
		{Sched: warm + 3, Start: warm + 3, Done: warm + 300, Status: olog.StatusOverload, Flags: olog.FlagMeasured},
		{Sched: warm + 4, Start: warm + 4, Done: warm + 400, Status: olog.StatusDrain, Flags: olog.FlagMeasured},
		{Sched: warm + 5, Start: warm + 5, Done: warm + 500, Status: olog.StatusOK, Flags: olog.FlagMeasured | olog.FlagMultiPart},
	}
	res := Analyze(hdr, recs, Options{})
	if res.Total.Ops != 3 || res.Total.Errors != 1 || res.Total.Overload != 1 || res.Total.Drain != 1 {
		t.Fatalf("Total = %+v, want 3 ops / 1 error / 1 overload / 1 drain", res.Total)
	}
	if res.MultiPart != 1 {
		t.Fatalf("MultiPart = %d, want 1", res.MultiPart)
	}
	// A 5-record run completing microseconds into a 4s window is heavily
	// under-covered and must be flagged in the text report.
	var b bytes.Buffer
	res.WriteText(&b)
	if !strings.Contains(b.String(), "UNDER-COVERED") {
		t.Fatalf("text report lacks UNDER-COVERED flag:\n%s", b.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	hdr := synthHeader()
	recs := synthRecs()
	base := Analyze(hdr, recs, Options{})

	// Self-compare: identical runs never regress.
	self := Compare(base, base, 0)
	if self.Regressed {
		t.Fatalf("self-compare regressed: %+v", self.Rows)
	}

	// Injected slowdown: double every latency — all gated latency metrics
	// worsen 100%, far past the 25% default threshold.
	slow := make([]olog.Rec, len(recs))
	for i, r := range recs {
		r.Done = r.Sched + 2*(r.Done-r.Sched)
		slow[i] = r
	}
	cmp := Compare(base, Analyze(hdr, slow, Options{}), 0)
	if !cmp.Regressed {
		t.Fatalf("2x slowdown not flagged: %+v", cmp.Rows)
	}
	// Severity sort: every regressed row precedes every clean row.
	seenClean := false
	for _, r := range cmp.Rows {
		if !r.Regressed {
			seenClean = true
		} else if seenClean {
			t.Fatalf("regressed row after clean row: %+v", cmp.Rows)
		}
	}
	var b bytes.Buffer
	cmp.WriteText(&b)
	if !strings.Contains(b.String(), "REGRESSION") {
		t.Fatalf("text verdict lacks REGRESSION:\n%s", b.String())
	}
}

func TestCompareInfDeltaJSON(t *testing.T) {
	hdr := synthHeader()
	good := Analyze(hdr, synthRecs(), Options{})
	// New run gains errors from a zero base: delta is +inf and must still
	// marshal (JSON has no Inf).
	bad := synthRecs()
	for i := range bad {
		if i%2 == 0 {
			bad[i].Status = olog.StatusAbort
		}
	}
	cmp := Compare(good, Analyze(hdr, bad, Options{}), 0)
	var b bytes.Buffer
	if err := cmp.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back map[string]any
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
}

func TestFormats(t *testing.T) {
	res := Analyze(synthHeader(), synthRecs(), Options{})
	res.File = "run.olog"
	var txt, jsb bytes.Buffer
	if err := res.Format(&txt, "text"); err != nil {
		t.Fatal(err)
	}
	if err := res.Format(&jsb, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "per-shard") {
		t.Fatalf("text output lacks per-shard section:\n%s", txt.String())
	}
	var back Result
	if err := json.Unmarshal(jsb.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Total.Ops != res.Total.Ops || back.Total.P99 != res.Total.P99 {
		t.Fatalf("JSON round-trip changed totals: %+v vs %+v", back.Total, res.Total)
	}
	if err := res.Format(&txt, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
