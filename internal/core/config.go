// Package core implements the micro-architectural measurement apparatus that
// replaces the hardware performance counters (Intel VTune on Ivy Bridge) used
// by the paper "Micro-architectural Analysis of In-memory OLTP" (SIGMOD'16).
//
// It provides:
//
//   - set-associative, LRU cache models with per-class (instruction/data)
//     accounting;
//   - a hierarchy of per-core L1I/L1D and unified L2 caches in front of a
//     shared last-level cache, with the geometry and miss penalties of the
//     paper's Table 1, plus an invalidation-based coherence step for the
//     multi-threaded experiments (paper section 7);
//   - a code-region model: engine components register address ranges in the
//     simulated code segment, and executing a component streams instruction
//     fetches for that range through the I-side hierarchy;
//   - a CPU execution context that retires instructions, accumulates stall
//     cycles, and attributes both to code modules (for the paper's
//     "inside/outside the OLTP engine" breakdown, Figure 7);
//   - a simulated PMU: counter snapshots and the derived metrics the paper
//     reports (IPC, stall cycles per 1000 instructions, stall cycles per
//     transaction), computed exactly as described in the paper's Section 3:
//     stall cycles are miss counts multiplied by the per-level penalty and
//     reported side by side.
package core

// CacheGeom describes one cache level.
type CacheGeom struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the cache-line size (64 on the paper's machine).
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// MissPenalty is the stall-cycle cost of missing at this level, i.e. the
	// latency of fetching from the next level, per the paper's Table 1.
	MissPenalty int
}

// Sets returns the number of sets in the cache.
func (g CacheGeom) Sets() int { return g.SizeBytes / (g.LineBytes * g.Assoc) }

// MaxCores is the hard cap on simulated cores. It is tied to the coherence
// directory's sharer-mask word: one uint64 per data line, one bit per core.
// Raising it past 64 requires widening the directory entries.
const MaxCores = 64

// HomePlacement selects how data lines are assigned a home socket (the socket
// whose memory controller serves their DRAM fills) on multi-socket machines.
type HomePlacement int

// Home placement policies.
const (
	// PlaceInterleaved spreads homes round-robin across sockets at 4KB-page
	// granularity (the uniform/striped OS default). It is the zero value.
	PlaceInterleaved HomePlacement = iota
	// PlacePartitioned homes each partition's data on the socket of the core
	// that owns the partition (NUMA-aware first-touch placement); address
	// ranges are claimed via Machine.ClaimHome during population, anything
	// unclaimed falls back to the interleaved default.
	PlacePartitioned
)

// String names the placement policy.
func (p HomePlacement) String() string {
	switch p {
	case PlaceInterleaved:
		return "uniform"
	case PlacePartitioned:
		return "partitioned"
	}
	return "placement(?)"
}

// HierarchyConfig describes the full memory hierarchy of the simulated server.
type HierarchyConfig struct {
	// Cores is the total number of simulated cores (each with private L1I,
	// L1D, L2), distributed over Sockets in ID order.
	Cores int
	// Sockets is the number of CPU sockets. Each socket has its own LLC and
	// its own memory controller; 0 or 1 models the single shared LLC of the
	// pre-NUMA configuration (remote penalties are then never charged).
	Sockets int
	// L1I, L1D, L2 are per-core; LLC describes one socket's last-level cache.
	// L1I.Assoc and L2.Assoc are at most 16 (a wayCache keeps a set's LRU
	// order in one word of 4-bit lanes); NewHierarchy panics above that.
	L1I, L1D, L2, LLC CacheGeom
	// IPrefetchLines is the depth of the sequential next-line instruction
	// prefetcher: on an L1I miss the following N lines are filled quietly.
	// Modern front-ends prefetch aggressively; 2 is a conservative default.
	IPrefetchLines int
	// Coherence enables the invalidation-based coherence directory for the
	// private data caches. Only meaningful with Cores > 1.
	Coherence bool
	// RemoteLLCPenalty is the stall-cycle cost of an LLC miss served by
	// another socket's LLC (a cross-socket snoop forward). Defaults to
	// 3/4 of LLC.MissPenalty when unset.
	RemoteLLCPenalty int
	// RemoteDRAMPenalty is the stall-cycle cost of an LLC miss whose line is
	// homed on a remote socket's memory (one QPI hop plus the remote
	// controller). Defaults to 2x LLC.MissPenalty when unset.
	RemoteDRAMPenalty int
	// XInvalidatePenalty is the stall-cycle cost a writer pays per remote
	// socket whose caches held the line (cross-socket ownership transfer).
	// Defaults to 3x L2.MissPenalty when unset.
	XInvalidatePenalty int
	// Placement selects the home-socket policy for data lines. Irrelevant
	// with a single socket.
	Placement HomePlacement
}

// SocketCount returns the normalized socket count (at least 1).
func (cfg HierarchyConfig) SocketCount() int {
	if cfg.Sockets <= 1 {
		return 1
	}
	if cfg.Cores > 0 && cfg.Sockets > cfg.Cores {
		return cfg.Cores
	}
	return cfg.Sockets
}

// CoresPerSocket returns the cores on each socket (the last socket may hold
// fewer when Cores does not divide evenly).
func (cfg HierarchyConfig) CoresPerSocket() int {
	s := cfg.SocketCount()
	return (cfg.Cores + s - 1) / s
}

// IvyBridgeCoresPerSocket is the per-socket core count of the simulated
// two-socket Ivy Bridge server.
const IvyBridgeCoresPerSocket = 10

// IvyBridge returns the hierarchy of the paper's server (Table 1): a two-socket
// Intel Xeon E5 v2 (Ivy Bridge). Per core: 32KB L1I and 32KB L1D with an
// 8-cycle miss latency, 256KB L2 with a 19-cycle miss latency; per socket: a
// 20MB LLC with a 167-cycle local-DRAM miss latency, a 120-cycle cross-socket
// LLC forward and a 310-cycle remote-DRAM fill.
//
// Up to 10 cores fit one socket (the historical single-LLC configuration,
// byte-identical to the pre-NUMA model); larger core counts span sockets of
// 10, so IvyBridge(20) is the paper's full 2x10-core topology.
func IvyBridge(cores int) HierarchyConfig {
	sockets := 1
	if cores > IvyBridgeCoresPerSocket {
		sockets = (cores + IvyBridgeCoresPerSocket - 1) / IvyBridgeCoresPerSocket
	}
	return HierarchyConfig{
		Cores:              cores,
		Sockets:            sockets,
		L1I:                CacheGeom{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, MissPenalty: 8},
		L1D:                CacheGeom{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, MissPenalty: 8},
		L2:                 CacheGeom{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8, MissPenalty: 19},
		LLC:                CacheGeom{SizeBytes: 20 << 20, LineBytes: 64, Assoc: 20, MissPenalty: 167},
		IPrefetchLines:     1,
		Coherence:          cores > 1,
		RemoteLLCPenalty:   120,
		RemoteDRAMPenalty:  310,
		XInvalidatePenalty: 90,
	}
}

// IvyBridge2S returns the paper's full server: both sockets, 2x10 cores.
func IvyBridge2S() HierarchyConfig { return IvyBridge(2 * IvyBridgeCoresPerSocket) }

// BaseIPC is the instructions-per-cycle of a loop with no cache misses,
// as measured by the paper on the 4-wide Ivy Bridge core ("The IPC value for
// this program after its cold start is 3").
const BaseIPC = 3.0

// LineShift is log2 of the cache-line size used throughout the simulator.
const LineShift = 6

// LineBytes is the cache-line size used throughout the simulator.
const LineBytes = 1 << LineShift
