// Load profiles: named shapes mapping a position within the simulated run
// (a fraction in [0, 1]) to an offered-rate multiplier. A profile turns the
// open-loop sender's flat Rate into a traffic story — a compressed day or a
// flash crowd — replayed at -time-scale compression (see scenario.go).
// Profiles are pure functions of the fraction: the whole arrival schedule is
// deterministic given Config.Seed, independent of wall clock and of how fast
// the server answers. Every shape has a consumer beyond its own test:
// diurnal is FigC1's day, flash is FigC2's crowd and the spike of the
// scenario and cluster smokes, and steady spells out the default.
package driver

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"oltpsim/internal/workload"
)

// Profile maps a position in the run to an offered-rate multiplier.
type Profile interface {
	// Mult returns the offered-rate multiplier at fraction f of the profile
	// span, f in [0, 1]. Implementations are pure and total on that range.
	Mult(f float64) float64
	// String returns the canonical spec, re-parseable by ParseProfile.
	String() string
}

// minProfileMult floors the multiplier the pacer will honor: a profile may
// return 0 (dead of night), but the sender must keep a trickle flowing so the
// schedule always advances and the connection never idles unboundedly.
const minProfileMult = 0.01

// steadyProfile is the identity profile: constant multiplier 1.
type steadyProfile struct{}

func (steadyProfile) Mult(float64) float64 { return 1 }
func (steadyProfile) String() string       { return "steady" }

// diurnalProfile is a one-day sinusoid compressed into the run: trough Lo at
// f=0 (midnight), peak 1 at f=0.5 (midday), back to the trough.
type diurnalProfile struct {
	Lo float64 // trough multiplier
}

func (p diurnalProfile) Mult(f float64) float64 {
	return p.Lo + (1-p.Lo)*(1-math.Cos(2*math.Pi*f))/2
}
func (p diurnalProfile) String() string { return fmt.Sprintf("diurnal:lo=%g", p.Lo) }

// flashProfile is a flash crowd: a rectangular pulse on a flat baseline,
// multiplier X during [At, At+Dur), 1 elsewhere.
type flashProfile struct {
	At, Dur float64 // pulse start and width, fractions of the run
	X       float64 // multiplier inside the pulse
}

func (p flashProfile) Mult(f float64) float64 {
	if f >= p.At && f < p.At+p.Dur {
		return p.X
	}
	return 1
}
func (p flashProfile) String() string {
	return fmt.Sprintf("flash:at=%g,dur=%g,x=%g", p.At, p.Dur, p.X)
}

// ParseProfile parses a profile spec: a name, optionally followed by
// ":key=value,..." parameters. The vocabulary:
//
//	steady                      constant 1 (the default)
//	diurnal[:lo=0.15]           one-day sinusoid, trough lo, peak 1
//	flash[:at=0.35,dur=0.1,x=8] flat 1 with a tall spike of x in [at, at+dur)
func ParseProfile(spec string) (Profile, error) {
	name, rest, _ := strings.Cut(spec, ":")
	params := map[string]float64{}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("driver: profile %q: parameter %q is not key=value", spec, kv)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("driver: profile %q: parameter %q: %v", spec, kv, err)
			}
			params[k] = f
		}
	}
	take := func(key string, def float64) float64 {
		if v, ok := params[key]; ok {
			delete(params, key)
			return v
		}
		return def
	}
	var p Profile
	switch name {
	case "", "steady":
		p = steadyProfile{}
	case "diurnal":
		p = diurnalProfile{Lo: take("lo", 0.15)}
	case "flash":
		p = flashProfile{At: take("at", 0.35), Dur: take("dur", 0.1), X: take("x", 8)}
	default:
		return nil, fmt.Errorf("driver: unknown profile %q (want steady|diurnal|flash)", name)
	}
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("driver: profile %q: unknown parameter(s) %s", spec, strings.Join(keys, ", "))
	}
	return p, nil
}

// pacer produces one connection's deterministic open-loop arrival schedule,
// shaped by a profile. It works in fractions of the measure window rather
// than nanoseconds: the mean inter-arrival step is
//
//	stepFrac = Conns / (Rate · Measure)
//
// and Rate·Measure — the total offered op count — is exactly invariant under
// time compression (a scenario at time-scale S multiplies Rate by S and
// divides Measure by S), so the fraction sequence is bit-identical at every
// time scale for a given seed. Callers convert to wall nanoseconds at the
// end: sched = warmEnd + frac·measure.
//
// The pacer owns a dedicated rng (Poisson draws), separate from the workload
// generator's: the schedule does not shift when a workload draws a different
// number of randoms per call.
type pacer struct {
	stepFrac float64 // mean inter-arrival at multiplier 1, fraction of the measure window
	frac     float64 // next arrival; negative while still in warmup
	prof     Profile
	poisson  bool
	rng      *workload.Rand
}

func newPacer(cfg Config, idx int) *pacer {
	// Divide by Rate·Measure as one product: it is the time-scale invariant
	// (total offered ops), so computing it first keeps the fraction schedule
	// bit-identical across compression factors — (Rate/Conns)·Measure would
	// round differently at different scales.
	step := float64(cfg.Conns) / (cfg.Rate * cfg.Measure.Seconds())
	return &pacer{
		stepFrac: step,
		// Start a full warmup before the window, staggered per connection so
		// Conns senders don't fire in lockstep.
		frac:    -float64(cfg.Warmup.Nanoseconds())/float64(cfg.Measure.Nanoseconds()) + float64(idx)*step/float64(cfg.Conns),
		prof:    cfg.Profile,
		poisson: cfg.Poisson,
		rng:     workload.NewRand(cfg.Seed ^ 0xACED<<24 ^ uint64(idx)*2_000_029),
	}
}

// next returns the next scheduled arrival as a fraction of the measure
// window (negative = during warmup, ≥ 1 = past the end) and advances the
// clock. Warmup traffic runs at the profile's opening multiplier.
func (p *pacer) next() float64 {
	f := p.frac
	m := 1.0
	if p.prof != nil {
		at := f
		if at < 0 {
			at = 0
		}
		if at > 1 {
			at = 1
		}
		if m = p.prof.Mult(at); m < minProfileMult {
			m = minProfileMult
		}
	}
	d := p.stepFrac / m
	if p.poisson {
		// Exponential inter-arrival: -ln(U) · mean.
		u := float64(p.rng.Next()>>11) / (1 << 53)
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		d *= -math.Log(u)
	}
	p.frac = f + d
	return f
}
