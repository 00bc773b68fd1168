package server

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

var updateExposition = flag.Bool("update-exposition", false,
	"rewrite testdata/exposition.txt from this run (only on a deliberate re-baseline)")

const expositionFile = "testdata/exposition.txt"

// wallClockSeries are the series whose values follow the wall clock, not the
// request script: the fence masks their values and keeps their names, labels
// and positions. oltpd_request_seconds_count is not among them.
var wallClockSeries = map[string]bool{
	"oltpd_uptime_seconds":  true,
	"oltpd_request_seconds": true,
}

// maskWallClock replaces the value of every wall-clock series with "*".
func maskWallClock(text string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name, _, _ := strings.Cut(line[:max(sp, 0)], "{")
		if wallClockSeries[name] {
			lines[i] = line[:sp] + " *\n"
		}
	}
	return strings.Join(lines, "")
}

// runExpositionScript drives s with a fixed, seeded script from one client,
// one request in flight at a time, so every simulated counter the scrape
// reads is a function of the script alone: reads or updates on every shard,
// some missing a key (errors), and on a concurrent engine three 2PC branches
// (committed, aborted, and a NO vote). It returns once every admitted request
// has retired, so no counter a worker bumps after answering is still moving.
// The client stays connected.
func runExpositionScript(t *testing.T, s *Server) {
	t.Helper()
	c := dialClient(t, s)
	t.Cleanup(func() { c.Close() })
	spec := s.cfg.Spec
	proc := "micro_ro"
	if spec.ReadWrite {
		proc = "micro_rw"
	}
	procID := c.prepare(proc)
	shards := int64(s.Shards())
	rng := rand.New(rand.NewSource(34))
	args := func(part int, miss bool) []catalog.Value {
		n := spec.RowsPerTx
		vals := make([]catalog.Value, 0, 2*n)
		for i := 0; i < n; i++ {
			key := rng.Int63n(spec.Rows/shards)*shards + int64(part)
			if miss && i == n-1 {
				key += spec.Rows // same partition, past the population
			}
			vals = append(vals, catalog.LongVal(key))
		}
		for i := 0; spec.ReadWrite && i < n; i++ {
			vals = append(vals, catalog.LongVal(rng.Int63n(1000)))
		}
		return vals
	}
	expect := func(id uint32, want byte) {
		t.Helper()
		got, typ, _, err := c.Recv()
		if err != nil || got != id || typ != want {
			t.Fatalf("request %d: frame %#x for %d (err %v), want %#x", id, typ, got, err, want)
		}
	}

	id := uint32(0)
	for i := 0; i < 60; i++ {
		part := rng.Intn(int(shards))
		miss := rng.Intn(6) == 0
		if err := c.Exec(id, procID, part, args(part, miss)); err != nil {
			t.Fatal(err)
		}
		want := byte(wire.MsgOK)
		if miss {
			want = wire.MsgErr
		}
		expect(id, want)
		id++
	}
	if s.eng.Concurrent() {
		for gtid, decide := range []string{"commit", "abort", "no-vote"} {
			part := gtid % int(shards)
			if err := c.Prepare2PC(id, uint64(gtid+1), procID, part, args(part, decide == "no-vote")); err != nil {
				t.Fatal(err)
			}
			expect(id, wire.MsgVote)
			id++
			switch decide {
			case "commit":
				if err := c.Commit2PC(id, uint64(gtid+1), part); err != nil {
					t.Fatal(err)
				}
			case "abort":
				if err := c.Abort2PC(id, uint64(gtid+1), part); err != nil {
					t.Fatal(err)
				}
			default:
				continue
			}
			expect(id, wire.MsgOK)
			id++
		}
	}
	s.reqWG.Wait()
}

// TestExpositionFence pins oltpd's exposition byte for byte: family order,
// HELP and TYPE lines, label sets and their order, group membership, and
// every value the request script determines. A 2-shard VoltDB server
// (concurrent engine, 2PC) and a serialized 1-shard Shore-MT each serve
// runExpositionScript; then the full render and each collector group's
// render are compared with testdata/exposition.txt, wall-clock values
// masked. Never regenerate the file outside a deliberate re-baseline.
func TestExpositionFence(t *testing.T) {
	var out strings.Builder
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"voltdb-2", Config{System: systems.VoltDB, Shards: 2,
			Spec: workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 2, ReadWrite: true}}},
		{"shoremt-1", Config{System: systems.ShoreMT, Shards: 1,
			Spec: workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 2}}},
	} {
		s := startServer(t, tc.cfg)
		runExpositionScript(t, s)
		reg := s.Registry()
		fmt.Fprintf(&out, "== %s render\n%s", tc.name, maskWallClock(reg.Render()))
		for _, g := range reg.Groups() {
			text, err := reg.RenderGroups([]string{g})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "== %s collect=%s\n%s", tc.name, g, maskWallClock(text))
		}
	}
	got := out.String()
	if *updateExposition {
		if err := os.WriteFile(expositionFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantB, err := os.ReadFile(expositionFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(wantB); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition diverged from %s at line %d:\n got %q\nwant %q", expositionFile, i+1, g, w)
			}
		}
	}
}
