package driver

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"oltpsim/internal/metrics"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// frameCounter records how many frames each Write on the wrapped socket
// carried.
type frameCounter struct {
	net.Conn
	mu     sync.Mutex
	frames []int
}

func (c *frameCounter) Write(b []byte) (int, error) {
	n := 0
	for r := bytes.NewReader(b); r.Len() > 0; n++ {
		if _, _, _, err := wire.ReadFrame(r, nil); err != nil {
			panic("driver wrote a partial frame")
		}
	}
	c.mu.Lock()
	c.frames = append(c.frames, n)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// admitted reads the server's count of admitted requests.
func admitted(t *testing.T, srv *server.Server) float64 {
	t.Helper()
	text, err := srv.Registry().RenderGroups([]string{"serving"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := metrics.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s.Sum("oltpd_requests_total")
}

func (c *frameCounter) take() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.frames
	c.frames = nil
	return out
}

// TestSenderWritesPerBurst is the driver half of the one-write rule: the
// sender writes everything it queued before it blocks, so at Pipeline 1 each
// Write carries exactly one frame, at Pipeline 16 the opening burst of 16
// free slots is one Write, and in open loop as in closed loop every request
// reaches the server and is answered — nothing is left queued at the end.
func TestSenderWritesPerBurst(t *testing.T) {
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	srv, err := server.New(server.Config{System: systems.VoltDB, Shards: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	for _, tc := range []struct {
		name  string
		cfg   Config
		check func(t *testing.T, frames []int)
	}{
		{"closed/pipeline1", Config{Pipeline: 1}, func(t *testing.T, frames []int) {
			for i, n := range frames {
				if n != 1 {
					t.Fatalf("write %d carried %d frames at Pipeline 1", i, n)
				}
			}
		}},
		{"closed/pipeline16", Config{Pipeline: 16}, func(t *testing.T, frames []int) {
			if frames[0] != 16 {
				t.Fatalf("the opening burst of 16 free slots took writes of %v frames", frames[:min(len(frames), 8)])
			}
		}},
		{"open/poisson", Config{Rate: 4000, Poisson: true}, func(t *testing.T, frames []int) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Addr, cfg.Spec, cfg.Conns, cfg.Seed = srv.Addr().String(), spec, 1, 1
			cfg.Warmup, cfg.Measure = 50*time.Millisecond, 250*time.Millisecond
			cfg = cfg.withDefaults()
			var fc *frameCounter
			c, err := dial(cfg, 0, func(addr string) (*wire.Client, error) {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				fc = &frameCounter{Conn: nc}
				return wire.NewClient(fc)
			})
			if err != nil {
				t.Fatal(err)
			}
			fc.take() // the Prepare exchange
			admitted0 := admitted(t, srv)

			base := time.Now()
			read := make(chan struct{})
			go func() { defer close(read); c.readLoop(base) }()
			c.sendLoop(base, cfg.Warmup.Nanoseconds(), (cfg.Warmup + cfg.Measure).Nanoseconds())
			<-read

			frames := fc.take()
			sent := 0
			for _, n := range frames {
				sent += n
			}
			if c.dirty.Load() || c.inflight.Load() != 0 || c.errs.Load() != 0 || c.ops.Load() == 0 {
				t.Fatalf("unclean run: dirty %v, %d in flight, %d errors, %d ops", c.dirty.Load(), c.inflight.Load(), c.errs.Load(), c.ops.Load())
			}
			if got := admitted(t, srv) - admitted0; got != float64(sent) {
				t.Fatalf("%d request frames written, the server admitted %.0f", sent, got)
			}
			tc.check(t, frames)
			t.Logf("%d requests in %d writes", sent, len(frames))
		})
	}
}
