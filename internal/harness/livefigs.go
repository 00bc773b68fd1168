package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/core"
	"oltpsim/internal/driver"
	"oltpsim/internal/metrics"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/testbed"
	"oltpsim/internal/workload"
)

// The live figures measure the serving path end to end — real oltpd nodes on
// loopback under oltpdrive load — in three families: serve (FigS1-FigS3: one
// node, sweeping offered load and shard placement), islands (FigI1-FigI3: N
// nodes sharing one shard map with a multi-partition 2PC share, the "OLTP on
// Hardware Islands" deployment question) and scenario (FigC1-FigC2:
// time-compressed load stories through the open-loop driver). They measure
// wall-clock behavior of this process on this machine — network stack,
// scheduling, batching — so their output is NOT deterministic and stays out
// of `-figure all` and the byte-identity goldens. Each figure is declared the
// way the simulated ones are: rows (a liveCell, label cells included) ×
// column formatters over its liveResult; runLive measures every cell.

// liveCell declares one live measurement — the deployment to start and the
// traffic to drive at it — and the label cells that lead every figure row
// rendered from it.
type liveCell struct {
	labels []string
	// server is the deployment, handed to testbed.Start as is.
	server server.Config
	// drive shapes the traffic; runLive fills in the target, the windows and
	// the seed. With a profile, Rate is the offered WALL ops/s at multiplier
	// 1: holding it constant across time scales keeps every scale inside the
	// same capacity envelope.
	drive driver.Config
	// profile, when set, makes the cell a scenario: scenarioSimDuration of
	// this load profile, Poisson arrivals, compressed by serveWindows' factor.
	// sample names the timeline CSV (re)written under testdata/scenario/ when
	// that directory exists under the current one (i.e. at the repo root).
	profile, sample string
	// scrape reads every node's /metrics over loopback HTTP after the run.
	scrape bool
}

// liveResult is what one cell measured.
type liveResult struct {
	rep        *driver.Report
	timeline   []driver.TimelineRow // scenario cells
	timeScale  float64              // scenario cells: the compression used
	meas       core.Measurement     // node 0's simulated PMU over the driver window
	concurrent bool                 // node 0's engine served in concurrent mode
	nodes      []metrics.Samples    // scrape cells, by node ID
}

// scenarioSimDuration is the simulated length of every scenario figure: a
// five-minute story, compressed onto the wall clock by serveWindows' factor.
const scenarioSimDuration = 5 * time.Minute

// serveWindows picks a cell's wall-clock budget by scale: the driver's warmup
// and measure windows, and for scenario cells the compression factor. Quick
// keeps a cell to half a second (a scenario's five simulated minutes to 2.5
// wall seconds); full lets the quantiles settle (twelve seconds a scenario).
func serveWindows(s Scale) (warm, measure time.Duration, timeScale float64) {
	switch {
	case s.TxFactor <= 0.26:
		return 100 * time.Millisecond, 400 * time.Millisecond, 120
	case s.TxFactor >= 3:
		return time.Second, 4 * time.Second, 25
	default:
		return 300 * time.Millisecond, 1500 * time.Millisecond, 50
	}
}

// runLive measures one cell: start the deployment, drive it between two
// simulated-PMU snapshots, scrape it if the cell asks, and stop it — which
// also checks that every node answered every request it admitted. Cells
// measure one at a time: BuildFigures renders figures in order, after every
// simulated cell has run, so nothing else competes for the cores.
func runLive(r *Runner, c liveCell) (res liveResult, err error) {
	bed, err := testbed.Start(c.server)
	if err != nil {
		return res, err
	}
	defer func() {
		if serr := bed.Stop(); err == nil {
			err = serr
		}
	}()
	d := bed.Target(c.drive)
	d.Seed = 42
	eng := bed.Nodes[0].Engine()
	// Observe quiesces concurrent shard workers; no traffic runs at either edge.
	snapshot := func() (s core.Snapshot) {
		eng.Observe(func(m *core.Machine) { s = m.Snapshot() })
		return s
	}
	before := snapshot()
	if c.profile != "" {
		err = runScenario(r, bed, d, c, &res)
	} else {
		d.Warmup, d.Measure, _ = serveWindows(r.Scale)
		res.rep, err = driver.Run(d)
	}
	if err != nil {
		return res, err
	}
	res.meas = core.NewMeasurement(before, snapshot(), eng.Machine().Hier.Config(), eng.BaseCPI())
	res.concurrent = eng.Concurrent()
	if c.scrape {
		var urls []string
		if urls, err = bed.MetricsURLs(); err != nil {
			return res, err
		}
		for i, url := range urls {
			s, err := driver.MetricsScraper(url)()
			if err != nil {
				return res, fmt.Errorf("node %d scrape: %w", i, err)
			}
			res.nodes = append(res.nodes, s)
		}
	}
	return res, nil
}

// runScenario is runLive's driver step for a scenario cell.
func runScenario(r *Runner, bed *testbed.Bed, d driver.Config, c liveCell, res *liveResult) (err error) {
	if d.Profile, err = driver.ParseProfile(c.profile); err != nil {
		return err
	}
	_, _, res.timeScale = serveWindows(r.Scale)
	d.Rate /= res.timeScale // simulated ops/s at multiplier 1
	d.Poisson = true
	var csv bytes.Buffer
	res.rep, res.timeline, err = driver.RunScenario(driver.ScenarioConfig{
		Driver:      d,
		TimeScale:   res.timeScale,
		SimDuration: scenarioSimDuration,
		SimWarmup:   15 * time.Second,
		AggInterval: scenarioSimDuration / 12,
		CSV:         &csv,
		Scrape: func() (map[string]float64, error) {
			nodes, err := bed.Scrape("engine")
			if err != nil {
				return nil, err
			}
			return nodes[0], nil
		},
	})
	if st, serr := os.Stat("testdata/scenario"); err == nil && serr == nil && st.IsDir() {
		err = os.WriteFile(filepath.Join("testdata", "scenario", c.sample), csv.Bytes(), 0o644)
	}
	return err
}

// liveFigure measures the declared cells one after another and renders each
// result through cols, which returns the value cells of every row the result
// yields (one for most figures; one per node, interval or phase for the
// rest). A cell that fails leaves a note instead of rows.
func liveFigure(r *Runner, f *Figure, cells []liveCell, cols func(liveResult) [][]string) *Figure {
	for _, c := range cells {
		res, err := runLive(r, c)
		if err != nil {
			f.Notes = append(f.Notes, fmt.Sprintf("cell %q failed: %v", c.labels, err))
			continue
		}
		for _, values := range cols(res) {
			f.Rows = append(f.Rows, append(append([]string{}, c.labels...), values...))
		}
	}
	return f
}

const liveNote = "live serving measurement (wall clock) — not deterministic, not golden-locked"

func us(d time.Duration) string { return d.Round(time.Microsecond).String() }

func tput(v float64) string { return fmt.Sprintf("%.0f", v) }

// oneNode is the single-node deployment of the serve and scenario figures:
// VoltDB serving the micro workload, two sockets once there are two shards.
func oneNode(shards int, placement core.HomePlacement, admitQueue int) server.Config {
	return server.Config{
		System:        systems.VoltDB,
		Shards:        shards,
		Sockets:       min(shards, 2),
		Placement:     placement,
		Spec:          workload.Spec{Kind: "micro", Rows: 200_000, RowsPerTx: 1},
		AdmitQueueMax: admitQueue,
	}
}

var placements = []struct {
	p    core.HomePlacement
	name string
}{{core.PlacePartitioned, "partitioned"}, {core.PlaceInterleaved, "interleaved"}}

// FigS1: closed-loop throughput and latency versus connection count, on the
// 2-shard, 2-socket partitioned deployment — how far the serving path
// scales before queueing dominates.
func FigS1(r *Runner) *Figure {
	var cells []liveCell
	for _, conns := range []int{1, 2, 4, 8} {
		cells = append(cells, liveCell{
			labels: []string{fmt.Sprint(conns)},
			server: oneNode(2, core.PlacePartitioned, 0),
			drive:  driver.Config{Conns: conns},
		})
	}
	return liveFigure(r, &Figure{
		ID:     "S1",
		Title:  "oltpd loopback: closed-loop throughput/latency vs connections (2 shards, partitioned)",
		Header: []string{"Conns", "Throughput op/s", "p50", "p99", "p999"},
		Notes:  []string{liveNote},
	}, cells, func(res liveResult) [][]string {
		return [][]string{{tput(res.rep.Throughput), us(res.rep.P50), us(res.rep.P99), us(res.rep.P999)}}
	})
}

// FigS2: open-loop p99 versus offered load, partitioned versus interleaved
// placement — the serving-path analogue of the FigN NUMA figures: at equal
// offered load, NUMA-blind placement pays its remote-miss penalty as tail
// latency.
func FigS2(r *Runner) *Figure {
	var cells []liveCell
	for _, rate := range []float64{2000, 8000, 20000} {
		for _, pl := range placements {
			cells = append(cells, liveCell{
				labels: []string{tput(rate), pl.name},
				server: oneNode(2, pl.p, 0),
				drive:  driver.Config{Conns: 4, Rate: rate},
			})
		}
	}
	return liveFigure(r, &Figure{
		ID:     "S2",
		Title:  "oltpd loopback: open-loop p99 vs offered load, partitioned vs interleaved placement",
		Header: []string{"Offered op/s", "Placement", "Achieved op/s", "p50", "p99"},
		Notes:  []string{liveNote},
	}, cells, func(res liveResult) [][]string {
		return [][]string{{tput(res.rep.Throughput), us(res.rep.P50), us(res.rep.P99)}}
	})
}

// FigS3: closed-loop throughput and simulated stall breakdown versus shard
// count on ONE engine, partitioned versus interleaved placement. The 1-shard
// cell serializes on the engine; the multi-shard cells run the engine's
// concurrent mode, where shard workers execute simultaneously on the one
// simulated machine and the coherence/NUMA traffic between them is real
// concurrent traffic, not interleaved-by-hand. Stall columns come from the
// simulated PMU (per transaction); throughput is wall clock.
func FigS3(r *Runner) *Figure {
	var cells []liveCell
	for _, shards := range []int{1, 2, 4} {
		for _, pl := range placements {
			if shards == 1 && pl.p == core.PlaceInterleaved {
				continue // single socket: placement is moot
			}
			cells = append(cells, liveCell{
				labels: []string{fmt.Sprint(shards), pl.name},
				server: oneNode(shards, pl.p, 0),
				drive:  driver.Config{Conns: 2 * shards},
			})
		}
	}
	return liveFigure(r, &Figure{
		ID:     "S3",
		Title:  "oltpd loopback: throughput and stall breakdown vs shard count on one engine (closed loop)",
		Header: []string{"Shards", "Placement", "Mode", "Throughput op/s", "IPC", "I-stall/tx", "D-stall/tx", "Remote/tx"},
		Notes: []string{
			"live serving measurement (wall clock throughput; simulated-PMU stalls) — not deterministic, not golden-locked",
			"multi-shard cells execute shard workers concurrently on the one simulated machine (engine concurrent mode)",
		},
	}, cells, func(res liveResult) [][]string {
		mode := "serialized"
		if res.concurrent {
			mode = "concurrent"
		}
		st := res.meas.StallsPerTx()
		return [][]string{{mode, tput(res.rep.Throughput), fmt.Sprintf("%.3f", res.meas.IPC()),
			tput(st.Instr()), tput(st.Data()), tput(st.RemoteI + st.RemoteD)}}
	})
}

// islandRow declares one cluster measurement: nodes oltpd processes sharing
// a 4-partition map under the given placement policy, serving read-write
// micro, driven closed loop with mpPct percent multi-partition transactions.
func islandRow(policy string, nodes, conns, mpPct int, labels ...string) liveCell {
	m, err := cluster.NewMap(policy, nodes, 4)
	if err != nil {
		panic(err) // the figures' maps are literals
	}
	return liveCell{
		labels: labels,
		server: server.Config{
			System:  systems.VoltDB,
			Spec:    workload.Spec{Kind: "micro", Rows: 200_000, RowsPerTx: 1, ReadWrite: true},
			Cluster: m,
		},
		drive: driver.Config{Conns: conns, MPRate: mpPct},
	}
}

// FigI1: closed-loop throughput and tail latency versus node count at a
// fixed multi-partition rate — the headline islands trade: spreading the
// same partitions across more nodes buys parallel sockets but puts 2PC and
// a network hop inside the multi-partition path.
func FigI1(r *Runner) *Figure {
	var cells []liveCell
	for _, nodes := range []int{1, 2, 4} {
		cells = append(cells, islandRow("range", nodes, 2*nodes, 5, fmt.Sprint(nodes)))
	}
	return liveFigure(r, &Figure{
		ID:     "I1",
		Title:  "cluster loopback: throughput/latency vs node count (4 partitions, range placement, 5% multi-partition)",
		Header: []string{"Nodes", "Throughput op/s", "p50", "p99", "2PC commits"},
		Notes:  []string{liveNote},
	}, cells, func(res liveResult) [][]string {
		return [][]string{{tput(res.rep.Throughput), us(res.rep.P50), us(res.rep.P99), fmt.Sprint(res.rep.MultiPart)}}
	})
}

// FigI2: throughput and p99 versus multi-partition rate, range versus hash
// placement on two nodes. Range placement keeps partition neighbors on one
// node, so the low-rate sweep stays mostly local; hash placement scatters
// them, turning more of the same traffic into cross-node 2PC.
func FigI2(r *Runner) *Figure {
	var cells []liveCell
	for _, mp := range []int{0, 5, 20, 50} {
		for _, policy := range []string{"range", "hash"} {
			cells = append(cells, islandRow(policy, 2, 4, mp, fmt.Sprintf("%d%%", mp), policy))
		}
	}
	return liveFigure(r, &Figure{
		ID:     "I2",
		Title:  "cluster loopback: throughput/p99 vs multi-partition rate, range vs hash placement (2 nodes, 4 partitions)",
		Header: []string{"MP rate", "Placement", "Throughput op/s", "p99", "2PC commits"},
		Notes:  []string{liveNote},
	}, cells, func(res liveResult) [][]string {
		return [][]string{{tput(res.rep.Throughput), us(res.rep.P99), fmt.Sprint(res.rep.MultiPart)}}
	})
}

// FigI3: per-node 2PC traffic and simulated-PMU stall breakdown on a
// two-node cluster at a 20% multi-partition rate, scraped from each node's
// /metrics endpoint over HTTP — the observability path the cluster smoke
// test exercises, measured rather than just probed.
func FigI3(r *Runner) *Figure {
	cell := islandRow("range", 2, 4, 20)
	cell.scrape = true
	return liveFigure(r, &Figure{
		ID:     "I3",
		Title:  "cluster loopback: per-node 2PC counters and stall breakdown via /metrics (2 nodes, 20% multi-partition)",
		Header: []string{"Node", "2PC prepares", "2PC commits", "2PC aborts", "I-stall cyc", "D-stall cyc", "Remote cyc"},
		Notes: []string{
			"live serving measurement (wall clock; simulated-PMU stalls) — not deterministic, not golden-locked",
			"counters scraped from each node's Prometheus /metrics endpoint over loopback HTTP",
		},
	}, []liveCell{cell}, func(res liveResult) (rows [][]string) {
		for i, s := range res.nodes {
			instr, data, remote := s.StallClasses()
			rows = append(rows, []string{fmt.Sprint(i),
				tput(s.Sum("oltpd_2pc_prepares_total")), tput(s.Sum("oltpd_2pc_commits_total")), tput(s.Sum("oltpd_2pc_aborts_total")),
				fmt.Sprintf("%.3g", instr), fmt.Sprintf("%.3g", data), fmt.Sprintf("%.3g", remote)})
		}
		return rows
	})
}

// scenarioRow declares one scenario measurement on the 2-shard partitioned
// node: the profile at wallRate offered ops/s, with queue-depth admission
// control when admitQueue > 0.
func scenarioRow(profile, sample string, wallRate float64, admitQueue int, labels ...string) liveCell {
	return liveCell{
		labels:  labels,
		server:  oneNode(2, core.PlacePartitioned, admitQueue),
		drive:   driver.Config{Conns: 4, Rate: wallRate},
		profile: profile,
		sample:  sample,
	}
}

// scenarioNote names the compression a scenario figure ran at.
func scenarioNote(r *Runner, profile string) string {
	_, _, timeScale := serveWindows(r.Scale)
	return fmt.Sprintf("%s simulated at %gx compression (profile %s)", scenarioSimDuration, timeScale, profile)
}

// FigC1: a compressed diurnal day through the open-loop sender — offered
// load follows the day's sinusoid while the interval timeline tracks how
// achieved throughput and tail latency breathe with it.
func FigC1(r *Runner) *Figure {
	const profile = "diurnal:lo=0.2"
	return liveFigure(r, &Figure{
		ID:     "C1",
		Title:  "oltpd loopback: diurnal load profile, time-compressed (open loop, 2 shards)",
		Header: []string{"Sim time", "Mult", "Achieved sim op/s", "p50", "p99", "Shed"},
		Notes:  []string{liveNote, scenarioNote(r, profile)},
	}, []liveCell{scenarioRow(profile, "diurnal.csv", 1500, 0)}, func(res liveResult) (rows [][]string) {
		for _, iv := range res.timeline {
			rows = append(rows, []string{
				time.Duration(iv.SimSeconds * float64(time.Second)).Round(time.Second).String(),
				fmt.Sprintf("%.2f", iv.Mult),
				tput(iv.Throughput / res.timeScale),
				fmt.Sprintf("%.0fµs", iv.P50us),
				fmt.Sprintf("%.0fµs", iv.P99us),
				fmt.Sprint(iv.Shed),
			})
		}
		return rows
	})
}

// FigC2: a flash crowd — a 12x spike for a fifth of the run — with and
// without queue-depth admission control. With admission the server sheds the
// un-servable part of the spike and p99 stays bounded through and after it;
// without, the queues absorb the spike and the tail diverges, dragging
// through the post-pulse phase until the backlog drains.
func FigC2(r *Runner) *Figure {
	const (
		pulseAt = 0.4
		profile = "flash:at=0.4,dur=0.2,x=12"
	)
	return liveFigure(r, &Figure{
		ID:     "C2",
		Title:  "oltpd loopback: flash crowd with vs without admission control (open loop, 2 shards)",
		Header: []string{"Admission", "Phase", "Achieved sim op/s", "p99 (worst interval)", "Shed"},
		Notes:  []string{liveNote, scenarioNote(r, profile)},
	}, []liveCell{
		scenarioRow(profile, "flash_admission.csv", 2000, 12, "queue<=12"),
		scenarioRow(profile, "flash_no_admission.csv", 2000, 0, "off"),
	}, func(res liveResult) (rows [][]string) {
		// Bucket the intervals into phases by the multiplier the profile
		// reported: the pulse, and what came before and after it.
		var phases [3]struct {
			ops, shed uint64
			wall, p99 float64
		}
		for _, iv := range res.timeline {
			a := &phases[2]
			if iv.Mult > 1 {
				a = &phases[1]
			} else if iv.SimSeconds <= pulseAt*scenarioSimDuration.Seconds() {
				a = &phases[0]
			}
			a.ops += iv.Ops
			a.shed += iv.Shed
			if iv.Throughput > 0 {
				a.wall += float64(iv.Ops) / iv.Throughput
			}
			if iv.P99us > a.p99 {
				a.p99 = iv.P99us
			}
		}
		for i, a := range phases {
			achieved := 0.0
			if a.wall > 0 {
				achieved = float64(a.ops) / a.wall / res.timeScale
			}
			rows = append(rows, []string{[]string{"before", "pulse", "after"}[i],
				tput(achieved), fmt.Sprintf("%.0fµs", a.p99), fmt.Sprint(a.shed)})
		}
		return rows
	})
}
