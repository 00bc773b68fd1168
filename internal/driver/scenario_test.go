package driver_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/driver"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// TestScenarioFlashCrowdWithAdmission is a scenario end to end: a
// flash-crowd profile replayed at 10× compression against an oltpd with
// queue-depth admission control. The timeline must cover the run, show the
// pulse in its multiplier column, carry per-interval quantiles and scraped
// per-shard IPC, and record nonzero shed while the drain stays clean.
func TestScenarioFlashCrowdWithAdmission(t *testing.T) {
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	cfg := server.Config{
		System:        systems.VoltDB,
		Shards:        2,
		Spec:          spec,
		AdmitQueueMax: 8,
	}
	bed := startBed(t, cfg)

	prof, err := driver.ParseProfile("flash:at=0.4,dur=0.25,x=40")
	if err != nil {
		t.Fatal(err)
	}
	// The total offered op count (Rate × Measure × mean multiplier) is
	// time-scale invariant, so under -race it is the rate — not the window —
	// that must shrink to keep the push-through affordable.
	rep, err := driver.Run(bed.Target(driver.Config{
		Conns:       2,
		Rate:        1500 / float64(raceWindowScale), // simulated ops/s at multiplier 1; ×40 in the pulse
		Poisson:     true,
		Seed:        11,
		Profile:     prof,
		TimeScale:   10,
		Measure:     6 * time.Second,
		Warmup:      500 * time.Millisecond,
		AggInterval: 250 * time.Millisecond,
		Scrape: func() (map[string]float64, error) {
			nodes, err := bed.Scrape()
			if err != nil {
				return nil, err
			}
			return nodes[0], nil
		},
	}))
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	rows := rep.Timeline
	var csv bytes.Buffer
	if err := driver.WriteTimelineCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("scenario measured zero ops")
	}
	if rep.DirtyDrains != 0 {
		t.Fatalf("%d connections hit the drain deadline", rep.DirtyDrains)
	}
	if rep.Shed == 0 {
		t.Fatal("flash crowd at 40× base with an 8-deep admission bound shed nothing")
	}
	if len(rows) < 10 {
		t.Fatalf("timeline has %d rows, want ≥ 10 (24 intervals configured)", len(rows))
	}

	var opsSum, shedSum uint64
	sawPulse, sawBase := false, false
	sawIPC, sawQuantile := false, false
	for i, r := range rows {
		if i > 0 && r.SimSeconds <= rows[i-1].SimSeconds {
			t.Fatalf("sim_seconds not increasing at row %d", i)
		}
		if r.Mult == 40 {
			sawPulse = true
		}
		if r.Mult == 1 {
			sawBase = true
		}
		if r.P99us > 0 && r.P50us > 0 && r.P50us <= r.P99us {
			sawQuantile = true
		}
		for _, ipc := range r.ShardIPC {
			if ipc > 0 {
				sawIPC = true
			}
		}
		opsSum += r.Ops
		shedSum += r.Shed
	}
	if !sawPulse || !sawBase {
		t.Fatalf("multiplier column missed the profile: pulse=%v base=%v", sawPulse, sawBase)
	}
	if !sawQuantile {
		t.Fatal("no row carries interval quantiles")
	}
	if !sawIPC {
		t.Fatal("no row carries scraped per-shard IPC")
	}
	if opsSum == 0 || opsSum > rep.Ops {
		t.Fatalf("timeline ops sum %d vs report %d", opsSum, rep.Ops)
	}
	if shedSum == 0 {
		t.Fatal("shed never surfaced in the timeline")
	}

	// The server counted the same story.
	nodes, err := bed.Scrape("serving")
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].Sum("oltpd_shed_total") == 0 {
		t.Fatal("oltpd_shed_total never moved")
	}

	// CSV: header plus one line per row, with per-shard IPC columns.
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(rows))
	}
	if want := "interval,sim_seconds,mult,ops,errors,rejected,shed,throughput_ops,p50_us,p99_us,stall_instr_pct,stall_data_pct,stall_remote_pct,shard0_ipc,shard1_ipc"; lines[0] != want {
		t.Fatalf("CSV header = %q, want %q", lines[0], want)
	}

}

// TestScenarioRequiresOpenLoop pins the validation surface: time
// compression, load profiles and Poisson arrivals all need an offered rate.
func TestScenarioRequiresOpenLoop(t *testing.T) {
	if _, err := driver.Run(driver.Config{Addr: "127.0.0.1:1", TimeScale: 10}); err == nil ||
		!strings.Contains(err.Error(), "open-loop") {
		t.Fatalf("time scale without rate: err = %v, want open-loop requirement", err)
	}
	p, _ := driver.ParseProfile("diurnal")
	if _, err := driver.Run(driver.Config{Addr: "127.0.0.1:1", Profile: p}); err == nil ||
		!strings.Contains(err.Error(), "open-loop") {
		t.Fatalf("profile without rate: err = %v, want open-loop requirement", err)
	}
	if _, err := driver.Run(driver.Config{Addr: "127.0.0.1:1", Poisson: true}); err == nil ||
		!strings.Contains(err.Error(), "open-loop") {
		t.Fatalf("Poisson without rate: err = %v, want open-loop requirement", err)
	}
}
