package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// ErrAborted marks a multi-partition transaction that aborted cleanly: a NO
// vote, an injected abort, or a coordinator timeout. The client got a
// definitive answer — nothing was installed anywhere.
var ErrAborted = errors.New("cluster: transaction aborted")

// Config shapes a routing client connection set.
type Config struct {
	// Addrs lists the oltpd nodes, indexed by node ID (must match Map.Nodes).
	Addrs []string
	// Map is the shard map shared with the servers.
	Map *ShardMap
	// Spec is the workload both sides agreed on (verified against each
	// node's Hello).
	Spec workload.Spec
	// VoteTimeout bounds the wait for each participant's vote (default 5s);
	// a timeout aborts the transaction. It must be comfortably below the
	// servers' participant decision timeout so a slow coordinator aborts
	// before participants presume abort on their own.
	VoteTimeout time.Duration
	// AckTimeout bounds every other synchronous read (default 15s).
	AckTimeout time.Duration
}

// Faults are deterministic coordinator-side fault-injection hooks, consulted
// mid-protocol by ExecMulti. Nil hooks are never consulted. They exist for
// the 2PC test battery; production paths leave them nil.
type Faults struct {
	// AbortAtPrepare, when true for (gtid, branch), aborts the transaction
	// instead of sending that branch's PREPARE2PC (earlier branches are
	// already prepared and get ABORT2PC).
	AbortAtPrepare func(gtid uint64, branch int) bool
	// AbortAfterVotes, when true, aborts after every participant voted YES,
	// exercising the window between prepare and commit.
	AbortAfterVotes func(gtid uint64) bool
	// DropDecision, when true, decides abort but tells no participant:
	// participants must resolve via their decision timeout.
	DropDecision func(gtid uint64) bool
	// SkipCommitAck, when true for (gtid, branch), does not wait for that
	// branch's commit ack (the ack arrives later as a stray and is skipped).
	SkipCommitAck func(gtid uint64, branch int) bool
}

// Branch is one single-partition fragment of a multi-partition transaction.
type Branch struct {
	Part int
	Proc string
	Args []catalog.Value
}

// Conn is a routing client over one wire.Client per node. Not safe for
// concurrent use, and one call is outstanding at a time — each
// load-generator connection owns one Conn; more concurrency is more Conns.
type Conn struct {
	cfg    Config
	nodes  []*nodeConn
	Faults Faults

	// A global transaction ID is coord | seq: coord is a coordinator id drawn
	// at random once per Dial and held in the high 32 bits, so coordinators
	// in different processes do not collide and a stray decision cannot
	// address another coordinator's prepared branch; seq counts this Conn's
	// transactions.
	coord uint64
	seq   uint32

	// MultiPart counts committed multi-partition transactions (readable
	// after a run; the driver aggregates it into its report).
	MultiPart uint64
}

// nodeConn is the per-node state on top of the node's wire.Client: request
// numbering, the prepared procedure IDs, and the out-of-order await logic.
type nodeConn struct {
	wc     *wire.Client
	reqSeq uint32
	procID map[string]uint32

	// pending holds responses that arrived ahead of the one being awaited.
	// When both branches of a 2PC live on one node, their shard workers ack
	// the decision independently, so acks legitimately arrive out of order.
	pending map[uint32]savedResp
	// strayIDs are responses deliberately never awaited (SkipCommitAck);
	// they are dropped on arrival instead of buffered.
	strayIDs map[uint32]bool
}

// savedResp is a buffered out-of-order response (cloned out of the reused
// frame buffer, positioned after the request ID).
type savedResp struct {
	typ byte
	r   wire.Reader
}

// Dial connects to every node, verifies each Hello against the shard map
// and workload spec, and prepares every procedure the generator can emit.
func Dial(cfg Config) (*Conn, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: nil shard map")
	}
	if len(cfg.Addrs) != cfg.Map.Nodes {
		return nil, fmt.Errorf("cluster: %d addrs for a %d-node map", len(cfg.Addrs), cfg.Map.Nodes)
	}
	if cfg.VoteTimeout <= 0 {
		cfg.VoteTimeout = 5 * time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 15 * time.Second
	}
	var id [4]byte
	if _, err := rand.Read(id[:]); err != nil {
		return nil, fmt.Errorf("cluster: drawing a coordinator id: %w", err)
	}
	c := &Conn{cfg: cfg, nodes: make([]*nodeConn, len(cfg.Addrs)), coord: uint64(binary.LittleEndian.Uint32(id[:])) << 32}
	for i, addr := range cfg.Addrs {
		n, err := dialNode(cfg, addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		c.nodes[i] = n
	}
	return c, nil
}

// dialNode connects one node (wire.Client checks the Hello itself), holds
// the Hello against the shard map and workload spec, and prepares every
// procedure the generator can emit.
func dialNode(cfg Config, addr string) (n *nodeConn, err error) {
	wc, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			wc.Close()
		}
	}()
	if wc.Shards != cfg.Map.Parts {
		return nil, fmt.Errorf("shard-map mismatch: server has %d partitions, map says %d", wc.Shards, cfg.Map.Parts)
	}
	if want := cfg.Spec.String(); wc.Spec != want {
		return nil, fmt.Errorf("workload mismatch: server serves %q, client generates %q", wc.Spec, want)
	}
	n = &nodeConn{
		wc:       wc,
		procID:   make(map[string]uint32),
		pending:  make(map[uint32]savedResp),
		strayIDs: make(map[uint32]bool),
	}
	for _, name := range cfg.Spec.ProcNames() {
		if n.procID[name], err = wc.Prepare(name); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Close tears every node socket down.
func (c *Conn) Close() {
	for _, n := range c.nodes {
		if n != nil {
			n.wc.Close()
		}
	}
}

// Nodes returns the node count.
func (c *Conn) Nodes() int { return len(c.nodes) }

// await reads frames until one carries reqID, enforcing the deadline.
// Responses for other outstanding requests of this connection (same-node 2PC
// branches ack independently, so ordering is not guaranteed) are buffered;
// deliberately unawaited responses (SkipCommitAck) are dropped on arrival.
func (n *nodeConn) await(reqID uint32, deadline time.Duration) (byte, wire.Reader, error) {
	if saved, ok := n.pending[reqID]; ok {
		delete(n.pending, reqID)
		return saved.typ, saved.r, nil
	}
	for {
		n.wc.SetReadDeadline(time.Now().Add(deadline))
		id, typ, r, err := n.wc.Recv()
		if err != nil {
			return 0, wire.Reader{}, err
		}
		if id == reqID {
			n.wc.SetReadDeadline(time.Time{})
			return typ, r, nil
		}
		if n.strayIDs[id] {
			delete(n.strayIDs, id)
			continue
		}
		n.pending[id] = savedResp{typ: typ, r: r.Clone()}
	}
}

// Exec routes one single-partition call to the partition's owning node and
// waits for its result.
func (c *Conn) Exec(part int, proc string, args []catalog.Value) error {
	n := c.nodes[c.cfg.Map.Owner(part)]
	return n.exec(part, proc, args, c.cfg.AckTimeout)
}

func (n *nodeConn) exec(part int, proc string, args []catalog.Value, deadline time.Duration) error {
	procID, ok := n.procID[proc]
	if !ok {
		return fmt.Errorf("cluster: unprepared procedure %q", proc)
	}
	n.reqSeq++
	if err := n.wc.Exec(n.reqSeq, procID, part, args); err != nil {
		return err
	}
	typ, r, err := n.await(n.reqSeq, deadline)
	if err != nil {
		return err
	}
	return wire.Ack(typ, r)
}

// ExecAll runs one call on EVERY node, each on its first owned partition —
// the scatter phase for cross-partition analytics: each node scans the
// shards it stores, and the caller merges the per-node results it captures
// out of band (the wire protocol carries no result payloads).
func (c *Conn) ExecAll(proc string, args []catalog.Value) error {
	for node := range c.nodes {
		part := c.firstOwned(node)
		if err := c.nodes[node].exec(part, proc, args, c.cfg.AckTimeout); err != nil {
			return fmt.Errorf("cluster: node %d: %w", node, err)
		}
	}
	return nil
}

func (c *Conn) firstOwned(node int) int {
	for p := 0; p < c.cfg.Map.Parts; p++ {
		if c.cfg.Map.Owner(p) == node {
			return p
		}
	}
	panic(fmt.Sprintf("cluster: node %d owns no partition", node))
}

// ExecMulti runs a multi-partition transaction as two-phase commit over its
// single-partition branches: prepares in ascending partition order (global
// ordered acquisition — no distributed deadlock), commits on unanimous YES,
// aborts on any NO vote, vote timeout, transport error or injected fault.
// nil means committed everywhere; an error wrapping ErrAborted means cleanly
// aborted everywhere (both are definitive answers). Any other error is a
// transport failure, after which the Conn must not be reused.
func (c *Conn) ExecMulti(branches []Branch) error {
	if len(branches) == 0 {
		return nil
	}
	ordered := make([]Branch, len(branches))
	copy(ordered, branches)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Part < ordered[j].Part })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Part == ordered[i-1].Part {
			return fmt.Errorf("cluster: multi-partition branches share partition %d", ordered[i].Part)
		}
	}
	c.seq++
	gtid := c.coord | uint64(c.seq)

	// Phase 1: prepare in ascending partition order.
	prepared := 0 // branches with a YES vote retained server-side
	var reason error
	for i := range ordered {
		b := &ordered[i]
		if f := c.Faults.AbortAtPrepare; f != nil && f(gtid, i) {
			reason = fmt.Errorf("injected abort at prepare of branch %d", i)
			break
		}
		n := c.nodes[c.cfg.Map.Owner(b.Part)]
		vote, err := n.prepare2PC(gtid, b, c.cfg.VoteTimeout)
		if err != nil {
			// Transport failure mid-prepare: abort what is prepared and
			// surface the transport error (not a clean abort).
			c.decide(gtid, ordered[:prepared], false, nil)
			return fmt.Errorf("cluster: prepare branch %d (partition %d): %w", i, b.Part, err)
		}
		if vote != nil {
			reason = fmt.Errorf("branch %d (partition %d) voted no: %w", i, b.Part, vote)
			break
		}
		prepared++
	}

	commit := reason == nil
	if commit {
		if f := c.Faults.AbortAfterVotes; f != nil && f(gtid) {
			commit = false
			reason = errors.New("injected abort between prepare and commit")
		}
	}
	if f := c.Faults.DropDecision; f != nil && f(gtid) {
		// Decide abort, tell no one: participants resolve via their decision
		// timeout. Still a definitive answer for the client.
		return fmt.Errorf("cluster: %w: decision dropped (injected)", ErrAborted)
	}
	if err := c.decide(gtid, ordered[:prepared], commit, c.Faults.SkipCommitAck); err != nil {
		return err
	}
	if !commit {
		return fmt.Errorf("cluster: %w: %w", ErrAborted, reason)
	}
	c.MultiPart++
	return nil
}

// prepare2PC sends one branch's PREPARE2PC and waits for its vote. A nil
// vote error with nil err is a YES; a non-nil vote error is a NO (with the
// participant's reason); err is a transport failure.
func (n *nodeConn) prepare2PC(gtid uint64, b *Branch, deadline time.Duration) (vote error, err error) {
	procID, ok := n.procID[b.Proc]
	if !ok {
		return fmt.Errorf("cluster: unprepared procedure %q", b.Proc), nil
	}
	n.reqSeq++
	if err := n.wc.Prepare2PC(n.reqSeq, gtid, procID, b.Part, b.Args); err != nil {
		return nil, err
	}
	typ, r, err := n.await(n.reqSeq, deadline)
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.MsgVote:
		if r.U8() != 0 {
			return nil, r.Err
		}
	case wire.MsgErr:
		// Admission-level refusal (draining, overload, not owned): nothing
		// retained.
	default:
		return nil, fmt.Errorf("cluster: unexpected frame %#x awaiting vote", typ)
	}
	msg := r.Str()
	if r.Err != nil {
		return nil, r.Err
	}
	return wire.ServerError(msg), nil
}

// decide sends the decision to every prepared branch, then collects acks
// (except branches skipAck selects, whose acks are recorded as strays).
func (c *Conn) decide(gtid uint64, prepared []Branch, commit bool, skipAck func(uint64, int) bool) error {
	type sent struct {
		n  *nodeConn
		id uint32
	}
	acks := make([]sent, 0, len(prepared))
	for i := range prepared {
		b := &prepared[i]
		n := c.nodes[c.cfg.Map.Owner(b.Part)]
		n.reqSeq++
		id := n.reqSeq
		var err error
		if commit {
			err = n.wc.Commit2PC(id, gtid, b.Part)
		} else {
			err = n.wc.Abort2PC(id, gtid, b.Part)
		}
		if err != nil {
			return fmt.Errorf("cluster: sending decision for partition %d: %w", b.Part, err)
		}
		if skipAck != nil && skipAck(gtid, i) {
			n.strayIDs[id] = true
			continue
		}
		acks = append(acks, sent{n, id})
	}
	for _, a := range acks {
		typ, r, err := a.n.await(a.id, c.cfg.AckTimeout)
		if err != nil {
			return fmt.Errorf("cluster: reading decision ack: %w", err)
		}
		if err := wire.Ack(typ, r); err != nil {
			return fmt.Errorf("cluster: decision rejected: %w", err)
		}
	}
	return nil
}
