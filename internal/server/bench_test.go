package server

import (
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// benchClient dials the server and prepares micro_ro.
func benchClient(b *testing.B, s *Server) (*wire.Client, uint32) {
	b.Helper()
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	procID, err := c.Prepare("micro_ro")
	if err != nil {
		b.Fatal(err)
	}
	return c, procID
}

// recvOK reads one response and fails the benchmark unless it is an OK.
func recvOK(b *testing.B, c *wire.Client) {
	_, typ, r, err := c.Recv()
	if err == nil {
		err = wire.Ack(typ, r)
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeLoopbackShards4 drives a 4-shard single-engine oltpd with a
// pipelined window spread across every shard, so all four shard workers
// group-execute concurrently on the one simulated machine (the concurrent
// engine mode): the multi-core serving configuration FigS3 sweeps. It stays
// beside the benchmark/ ladder (which carries the 1-connection and pipelined
// round trips as server.rtt_raw_us and server.rtt_raw_pipe8_us) because no
// gated workload there runs shards on two processors.
func BenchmarkServeLoopbackShards4(b *testing.B) {
	s, err := New(Config{
		System: systems.VoltDB,
		Shards: 4,
		Spec:   workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	if !s.Engine().Concurrent() {
		b.Fatal("4-shard VoltDB server is not in concurrent mode")
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()

	c, procID := benchClient(b, s)
	defer c.Close()
	key := []catalog.Value{{}}

	const window = 16 // 4 in flight per shard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		n := window
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			part := (i + j) % 4
			key[0].I = int64(4*((i+j)%1000) + part)
			if err := c.Exec(uint32(i+j), procID, part, key); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < n; j++ {
			recvOK(b, c)
		}
	}
}
