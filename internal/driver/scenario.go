// Time compression and the timeline. A run states its traffic in simulated
// time — "a day of diurnal load", "a six-minute flash crowd" — and plays it
// through the sender at a TimeScale compression factor: at scale S, one
// wall-clock second carries S simulated seconds, so the offered wall rate is
// S times the simulated rate and the whole profile finishes in Measure/S. The
// arrival schedule is computed in fractions of the window (see pacer), so the
// same seed produces the identical simulated schedule at every compression
// factor.
//
// With AggInterval set, an observer snapshots every connection's latency
// histogram and counters once per aggregation interval, plus (optionally)
// the served oltpd's /metrics; successive snapshots are differenced into
// TimelineRows — per-interval throughput, error/rejection/shed counts,
// p50/p99 from histogram-bucket deltas, and per-shard IPC and stall mix
// from scrape deltas — written as CSV or JSON.
package driver

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"oltpsim/internal/metrics"
)

// wallClock converts a defaulted, simulated-time Config to the wall-clock
// one the run keeps: Rate×S offered wall ops/s over Warmup/S and Measure/S.
// Rate·Measure, the total offered op count, is invariant under the
// conversion, which is what keeps the pacer's schedule scale-invariant.
func (c Config) wallClock() (Config, error) {
	s := c.TimeScale
	if s != 1 && c.Rate <= 0 {
		return c, fmt.Errorf("driver: time scale %g needs open-loop operation (set Rate in simulated ops/s)", s)
	}
	c.Rate *= s
	c.Measure = time.Duration(float64(c.Measure) / s)
	c.Warmup = time.Duration(float64(c.Warmup) / s)
	if c.Measure <= 0 || c.Warmup <= 0 {
		return c, fmt.Errorf("driver: time scale %g compresses the run below the clock resolution", s)
	}
	return c, nil
}

// TimelineRow is one aggregation interval of a run. Quantiles come
// from histogram-bucket deltas between the interval's two snapshots; IPC and
// the stall mix come from scrape deltas (zero without a scraper). Times and
// rates are in simulated units except Throughput, which is measured wall
// ops/s (divide by the time scale for simulated ops per simulated second).
type TimelineRow struct {
	Interval   int
	SimSeconds float64 // interval end, simulated seconds since the profile started
	Mult       float64 // profile multiplier at the interval midpoint
	Ops        uint64
	Errors     uint64
	Rejected   uint64
	Shed       uint64
	Throughput float64 // wall ops/s over the interval
	P50us      float64
	P99us      float64
	// Per-shard IPC over the interval (Δinstructions/Δcycles from the
	// scrape); empty without a scraper.
	ShardIPC []float64
	// Stall-cycle mix over the interval, aggregated across shards: the
	// instruction-fetch share (L1I/L2I/LLC-I), the data share (L1D/L2D/LLC-D),
	// and the remote-socket share, as percentages of interval stall cycles.
	StallInstrPct  float64
	StallDataPct   float64
	StallRemotePct float64
}

// MetricsScraper returns a Scrape func reading a Prometheus-text endpoint
// (oltpd's -metrics-addr), e.g. MetricsScraper("http://127.0.0.1:7891/metrics").
func MetricsScraper(url string) func() (map[string]float64, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	return func() (map[string]float64, error) {
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		if err != nil {
			return nil, err
		}
		return metrics.Parse(string(body))
	}
}

// WriteTimelineCSV renders rows in the schema
//
//	interval,sim_seconds,mult,ops,errors,rejected,shed,throughput_ops,
//	p50_us,p99_us,stall_instr_pct,stall_data_pct,stall_remote_pct
//	[,shard<i>_ipc ...]
//
// with one shard IPC column per served shard when a scraper ran.
func WriteTimelineCSV(w io.Writer, rows []TimelineRow) error {
	shards := 0
	for _, r := range rows {
		if len(r.ShardIPC) > shards {
			shards = len(r.ShardIPC)
		}
	}
	hdr := "interval,sim_seconds,mult,ops,errors,rejected,shed,throughput_ops,p50_us,p99_us,stall_instr_pct,stall_data_pct,stall_remote_pct"
	for i := 0; i < shards; i++ {
		hdr += fmt.Sprintf(",shard%d_ipc", i)
	}
	if _, err := fmt.Fprintln(w, hdr); err != nil {
		return err
	}
	for _, r := range rows {
		line := fmt.Sprintf("%d,%.3f,%.4f,%d,%d,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f",
			r.Interval, r.SimSeconds, r.Mult, r.Ops, r.Errors, r.Rejected, r.Shed,
			r.Throughput, r.P50us, r.P99us, r.StallInstrPct, r.StallDataPct, r.StallRemotePct)
		for i := 0; i < shards; i++ {
			ipc := 0.0
			if i < len(r.ShardIPC) {
				ipc = r.ShardIPC[i]
			}
			line += fmt.Sprintf(",%.3f", ipc)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// --- observer ---------------------------------------------------------------

// obsSnap is one instant's view of the run: merged histogram buckets and
// counters across connections, plus the optional server scrape.
type obsSnap struct {
	at                        time.Time
	counts                    [metrics.NumBuckets]uint64
	ops, errs, rejected, shed uint64
	scrape                    map[string]float64
}

// observer samples the live connections once per (wall) aggregation interval
// from inside Run; successive snapshots are differenced into timeline rows.
// cfg is the run's simulated-time Config.
type observer struct {
	cfg     Config
	conns   []*clientConn
	base    time.Time
	warmEnd int64
	end     int64
	quit    chan struct{}
	fin     chan struct{}
	rows    []TimelineRow
}

func (o *observer) start(conns []*clientConn, base time.Time, warmEnd, end int64) {
	o.conns = conns
	o.base = base
	o.warmEnd = warmEnd
	o.end = end
	o.quit = make(chan struct{})
	o.fin = make(chan struct{})
	go o.loop()
}

func (o *observer) stop() {
	close(o.quit)
	<-o.fin
}

func (o *observer) loop() {
	defer close(o.fin)
	wallInterval := time.Duration(float64(o.cfg.AggInterval) / o.cfg.TimeScale)
	if wallInterval <= 0 {
		wallInterval = time.Millisecond
	}
	n := int(math.Round(float64(o.end-o.warmEnd) / float64(wallInterval)))
	if n < 1 {
		n = 1
	}
	start := o.base.Add(time.Duration(o.warmEnd))
	prev := o.snapshot()
	for k := 1; k <= n; k++ {
		target := start.Add(time.Duration(k) * wallInterval)
		if d := time.Until(target); d > 0 {
			select {
			case <-time.After(d):
			case <-o.quit:
				// The run ended early (drain, socket error): one final row
				// covers whatever the tail interval saw.
				cur := o.snapshot()
				if cur.ops+cur.errs+cur.rejected+cur.shed > prev.ops+prev.errs+prev.rejected+prev.shed {
					o.emit(k, cur, prev, start)
				}
				return
			}
		}
		cur := o.snapshot()
		o.emit(k, cur, prev, start)
		prev = cur
	}
}

func (o *observer) snapshot() obsSnap {
	var s obsSnap
	var tmp [metrics.NumBuckets]uint64
	for _, c := range o.conns {
		c.hist.CopyCounts(&tmp)
		metrics.AddCounts(&s.counts, &tmp)
		s.ops += c.ops.Load()
		s.errs += c.errs.Load()
		s.rejected += c.rejected.Load()
		s.shed += c.shed.Load()
	}
	if o.cfg.Scrape != nil {
		if m, err := o.cfg.Scrape(); err == nil {
			s.scrape = m
		}
	}
	s.at = time.Now()
	return s
}

// emit differences two snapshots into one TimelineRow.
func (o *observer) emit(k int, cur, prev obsSnap, start time.Time) {
	row := TimelineRow{
		Interval: k,
		Ops:      cur.ops - prev.ops,
		Errors:   cur.errs - prev.errs,
		Rejected: cur.rejected - prev.rejected,
		Shed:     cur.shed - prev.shed,
	}
	// Simulated positions of the interval's endpoints (seconds since the
	// profile window opened).
	scale := o.cfg.TimeScale
	simPrev := prev.at.Sub(start).Seconds() * scale
	simCur := cur.at.Sub(start).Seconds() * scale
	if simPrev < 0 {
		simPrev = 0
	}
	row.SimSeconds = simCur
	if prof := o.cfg.Profile; prof != nil {
		frac := ((simPrev + simCur) / 2) / o.cfg.Measure.Seconds()
		row.Mult = prof.Mult(math.Min(math.Max(frac, 0), 1))
	} else {
		row.Mult = 1
	}
	if wallDt := cur.at.Sub(prev.at).Seconds(); wallDt > 0 {
		row.Throughput = float64(row.Ops) / wallDt
	}
	var delta [metrics.NumBuckets]uint64
	if metrics.SubCounts(&delta, &cur.counts, &prev.counts) > 0 {
		row.P50us = metrics.CountsQuantile(&delta, 0.5) / 1e3
		row.P99us = metrics.CountsQuantile(&delta, 0.99) / 1e3
	}
	o.emitPMU(&row, cur.scrape, prev.scrape)
	o.rows = append(o.rows, row)
}

// emitPMU fills the scrape-derived columns: per-shard interval IPC and the
// aggregate stall mix.
func (o *observer) emitPMU(row *TimelineRow, cur, prev metrics.Samples) {
	if cur == nil || prev == nil {
		return
	}
	for i := 0; i < o.conns[0].shards; i++ {
		shard := fmt.Sprintf(`{shard="%d"}`, i)
		di := cur["oltpd_instructions_total"+shard] - prev["oltpd_instructions_total"+shard]
		dc := cur["oltpd_cycles_total"+shard] - prev["oltpd_cycles_total"+shard]
		ipc := 0.0
		if dc > 0 {
			ipc = di / dc
		}
		row.ShardIPC = append(row.ShardIPC, ipc)
	}
	instr, data, remote := cur.StallClasses()
	pi, pd, pr := prev.StallClasses()
	instr, data, remote = instr-pi, data-pd, remote-pr
	if total := instr + data + remote; total > 0 {
		row.StallInstrPct = 100 * instr / total
		row.StallDataPct = 100 * data / total
		row.StallRemotePct = 100 * remote / total
	}
}
