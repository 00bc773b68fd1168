package cluster_test

import (
	"testing"

	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// BenchmarkClusterLoopback measures the cluster serving path per
// transaction: two oltpd nodes on loopback, a shard-routing coordinator
// client, and every 8th operation a two-branch 2PC spanning both nodes —
// so ns/op blends the single-partition fast path with the full
// prepare/vote/commit round trip (benchmark/ measures the two apart, with
// medians and spreads, as cluster.exec_us and cluster.exec_multi_us).
func BenchmarkClusterLoopback(b *testing.B) {
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1, ReadWrite: true}
	addrs := make([]string, m.Nodes)
	for i := 0; i < m.Nodes; i++ {
		srv, err := server.New(server.Config{
			System:  systems.VoltDB,
			Spec:    spec,
			Cluster: m,
			Node:    i,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Shutdown()
		addrs[i] = srv.Addr().String()
	}
	conn, err := cluster.Dial(cluster.Config{Addrs: addrs, Map: m, Spec: spec})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	args := make([]catalog.Value, 2)
	branches := make([]cluster.Branch, 2)
	bargs := [2][2]catalog.Value{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := i % 4
		key := int64(4*(i%1000) + part)
		if i%8 == 7 {
			// Two-branch 2PC: this partition plus its cross-node neighbor
			// (hash placement: partitions p and p+1 live on different nodes).
			pp := (part + 1) % 4
			kk := int64(4*(i%1000) + pp)
			bargs[0] = [2]catalog.Value{catalog.LongVal(key), catalog.LongVal(int64(i))}
			bargs[1] = [2]catalog.Value{catalog.LongVal(kk), catalog.LongVal(int64(i))}
			branches[0] = cluster.Branch{Part: part, Proc: "micro_rw", Args: bargs[0][:]}
			branches[1] = cluster.Branch{Part: pp, Proc: "micro_rw", Args: bargs[1][:]}
			if err := conn.ExecMulti(branches); err != nil {
				b.Fatal(err)
			}
			continue
		}
		args[0] = catalog.LongVal(key)
		args[1] = catalog.LongVal(int64(i))
		if err := conn.Exec(part, "micro_rw", args); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if want := uint64(b.N / 8); conn.MultiPart < want {
		b.Fatalf("committed %d multi-partition transactions, want >= %d", conn.MultiPart, want)
	}
}
