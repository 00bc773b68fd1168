package driver

import (
	"math"
	"testing"
	"time"
)

func mustProfile(t *testing.T, spec string) Profile {
	t.Helper()
	p, err := ParseProfile(spec)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", spec, err)
	}
	return p
}

func TestProfileShapes(t *testing.T) {
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	cases := []struct {
		spec string
		at   float64
		want float64
	}{
		{"steady", 0.0, 1}, {"steady", 0.7, 1},
		{"diurnal:lo=0.2", 0, 0.2},    // trough at midnight
		{"diurnal:lo=0.2", 0.5, 1},    // peak at midday
		{"diurnal:lo=0.2", 0.25, 0.6}, // halfway up
		{"flash:at=0.3,dur=0.2,x=8", 0.29, 1},
		{"flash:at=0.3,dur=0.2,x=8", 0.3, 8},
		{"flash:at=0.3,dur=0.2,x=8", 0.49, 8},
		{"flash:at=0.3,dur=0.2,x=8", 0.5, 1},
	}
	for _, c := range cases {
		if got := mustProfile(t, c.spec).Mult(c.at); !approx(got, c.want) {
			t.Errorf("%s.Mult(%g) = %g, want %g", c.spec, c.at, got, c.want)
		}
	}
}

func TestProfileParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"steady", "diurnal:lo=0.15", "flash:at=0.35,dur=0.1,x=8",
	} {
		p := mustProfile(t, spec)
		if got := p.String(); got != spec {
			t.Errorf("%q round-trips as %q", spec, got)
		}
		if _, err := ParseProfile(p.String()); err != nil {
			t.Errorf("re-parsing %q: %v", p.String(), err)
		}
	}
	for _, bad := range []string{
		"tsunami", "diurnal:lo", "flash:at=x", "diurnal:hi=2", "flash:at=0.1,zz=3",
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
	// The empty spec is the steady default.
	if p, err := ParseProfile(""); err != nil || p.Mult(0.3) != 1 {
		t.Errorf("empty spec: %v, %v", p, err)
	}
}

// schedule drains n arrivals from one connection's pacer, after the
// conversion to the wall clock Run applies.
func schedule(t *testing.T, cfg Config, idx, n int) []float64 {
	t.Helper()
	cfg, err := cfg.withDefaults().wallClock()
	if err != nil {
		t.Fatal(err)
	}
	p := newPacer(cfg, idx)
	out := make([]float64, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// TestPacerDeterministicSchedule is the profile-clock determinism test: the
// arrival schedule — expressed in fractions of the measurement window, i.e.
// simulated time — is a pure function of (seed, profile, offered sim load),
// identical across runs and across time-compression factors. The pacer works
// in fraction space precisely so that Rate·Measure (the total offered op
// count), which time compression leaves invariant, is the only scale that
// enters.
func TestPacerDeterministicSchedule(t *testing.T) {
	// cfgAt states the same simulated scenario (500 sim-ops/s for 10
	// simulated seconds, 1s sim warmup) at compression S; schedule converts
	// it to wall-clock terms the way Run does.
	cfgAt := func(scale float64) Config {
		return Config{
			Conns:     3,
			Rate:      500,
			Poisson:   true,
			Seed:      42,
			Warmup:    time.Second,
			Measure:   10 * time.Second,
			Profile:   diurnalProfile{Lo: 0.2},
			TimeScale: scale,
		}
	}
	const n = 2000
	base := schedule(t, cfgAt(1), 0, n)

	// Same seed, same config ⇒ identical schedule (run-to-run determinism).
	again := schedule(t, cfgAt(1), 0, n)
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("arrival %d differs across identical runs: %v vs %v", i, base[i], again[i])
		}
	}

	// Time compression that divides the scenario evenly preserves the
	// simulated schedule bit for bit.
	for _, scale := range []float64{10, 100} {
		comp := schedule(t, cfgAt(scale), 0, n)
		for i := range base {
			if base[i] != comp[i] {
				t.Fatalf("time-scale %g: arrival %d = %v, want %v (sim schedule must be scale-invariant)",
					scale, i, comp[i], base[i])
			}
		}
	}

	// Different seeds and different connections diverge (no accidental
	// schedule collisions between senders).
	other := schedule(t, cfgAt(1), 1, n)
	diff := 0
	for i := range base {
		if base[i] != other[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("connections 0 and 1 share one arrival schedule")
	}

	// Schedules advance strictly and start a warmup before the window.
	if base[0] >= 0 {
		t.Fatalf("first arrival %v is not inside warmup (< 0)", base[0])
	}
	for i := 1; i < n; i++ {
		if base[i] <= base[i-1] {
			t.Fatalf("schedule not strictly increasing at %d: %v then %v", i, base[i-1], base[i])
		}
	}
}

// TestPacerProfileShapesRate: with a flash profile, arrivals inside the
// pulse are denser by the pulse multiplier.
func TestPacerProfileShapesRate(t *testing.T) {
	cfg := Config{
		Conns:   1,
		Rate:    10000,
		Seed:    7,
		Warmup:  10 * time.Millisecond,
		Measure: time.Second,
		Profile: flashProfile{At: 0.4, Dur: 0.2, X: 10},
	}
	arr := schedule(t, cfg, 0, 30000)
	// Two equal-width sample windows, one on the flat baseline and one fully
	// inside the pulse [0.4, 0.6) with margin off its edges.
	var before, inside int
	for _, f := range arr {
		switch {
		case f >= 0.1 && f < 0.25:
			before++
		case f >= 0.42 && f < 0.57:
			inside++
		}
	}
	if before == 0 || inside == 0 {
		t.Fatalf("windows unpopulated: before=%d inside=%d", before, inside)
	}
	ratio := float64(inside) / float64(before)
	if ratio < 7 || ratio > 13 {
		t.Fatalf("pulse density ratio = %.2f, want ≈10", ratio)
	}
}
