package driver_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/driver"
	"oltpsim/internal/olog"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

var updateScheduleFence = flag.Bool("update-schedule-fence", false,
	"rewrite testdata/schedule_fence.txt from this run (only on a deliberate re-baseline)")

const scheduleFenceFile = "testdata/schedule_fence.txt"

// fenceSchedule renders one run's request log as the fence compares it: the
// olog header's offered rate and windows, then every record's (Sched, Shard,
// Proc), sorted. An open-loop Sched comes from the pacer alone, so the text is
// a function of the configuration, not of how fast the server answered.
func fenceSchedule(t *testing.T, name, path string) string {
	t.Helper()
	hdr, recs, err := olog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Sched != b.Sched {
			return a.Sched < b.Sched
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Proc < b.Proc
	})
	var b strings.Builder
	fmt.Fprintf(&b, "# %s rate=%g warmup_ns=%d measure_ns=%d records=%d\n",
		name, hdr.Rate, hdr.WarmupNs, hdr.MeasureNs, len(recs))
	for _, r := range recs {
		fmt.Fprintf(&b, "%d %d %d\n", r.Sched, r.Shard, r.Proc)
	}
	return b.String()
}

// TestScheduleFence pins the open-loop arrival schedule of two seeded Poisson
// runs against a 2-shard micro oltpd without admission control: a plain run
// at time scale 1, and a flash-crowd scenario compressed 10×. Every request
// the pacer scheduled is sent and answered, so the sorted request log, with
// the header's wall rate and windows, is exactly what the simulated-to-wall
// conversion produced.
func TestScheduleFence(t *testing.T) {
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	bed := startBed(t, server.Config{System: systems.VoltDB, Shards: 2, Spec: spec})
	dir := t.TempDir()

	plain := filepath.Join(dir, "plain.olog")
	if _, err := driver.Run(bed.Target(driver.Config{
		Conns:   2,
		Rate:    300,
		Poisson: true,
		Seed:    21,
		Warmup:  100 * time.Millisecond,
		Measure: 400 * time.Millisecond,
		ReqLog:  plain,
	})); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	prof, err := driver.ParseProfile("flash")
	if err != nil {
		t.Fatal(err)
	}
	flash := filepath.Join(dir, "flash.olog")
	if _, err := driver.Run(bed.Target(driver.Config{
		Conns:     2,
		Rate:      50, // simulated ops/s at multiplier 1
		Poisson:   true,
		Seed:      22,
		Warmup:    time.Second,
		Measure:   4 * time.Second,
		Profile:   prof,
		ReqLog:    flash,
		TimeScale: 10,
	})); err != nil {
		t.Fatalf("flash scenario: %v", err)
	}

	got := fenceSchedule(t, "plain", plain) + fenceSchedule(t, "flash_x10", flash)
	if *updateScheduleFence {
		if err := os.WriteFile(scheduleFenceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scheduleFenceFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-schedule-fence)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d: got %q, want %q", scheduleFenceFile, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", scheduleFenceFile, len(gl), len(wl))
}
