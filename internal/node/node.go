// Package node provides the process runtime: it binds a protocol
// implementation to a hardware clock, the network, and a signature scheme,
// and exposes the environment interface protocols are written against.
//
// Correct protocols observe time exclusively through their logical clock
// (LogicalTime, AtLogical); real time exists in the interface only for
// Byzantine protocol implementations, which per the model are controlled by
// an omniscient adversary.
package node

import (
	"fmt"
	"math"
	"math/rand"

	"optsync/internal/clock"
	"optsync/internal/network"
	"optsync/internal/probe"
	"optsync/internal/sig"
	"optsync/internal/sim"
)

// ID identifies a process.
type ID = network.NodeID

// Message is the typed network envelope protocols exchange: a Kind
// discriminator plus inline scalars and an optional structured payload.
// Protocols allocate kinds with network.NewKind and dispatch on msg.Kind
// instead of type-switching over `any`.
type Message = network.Message

// Timer is an opaque handle to a cancellable scheduled callback. The
// simulation runtime backs it with a sim.Timer, an 8-byte value naming a
// slot of the engine's timer slab. Protocols only store it and hand it
// back to Env.Cancel.
type Timer any

// Env is the world as seen by a protocol instance.
type Env interface {
	// ID returns this process's identity.
	ID() ID
	// N returns the total number of processes.
	N() int
	// F returns the resilience parameter (max faults tolerated).
	F() int

	// LogicalTime returns the current logical clock reading C = H + A.
	LogicalTime() float64
	// HardwareTime returns the current hardware clock reading H.
	HardwareTime() float64
	// SetLogical sets the logical clock to read value now (a resync jump).
	SetLogical(value float64)
	// AtLogical schedules fn for the instant the logical clock reads
	// value (immediately if it already does). The timer assumes no
	// further adjustments: after any SetLogical, protocols must cancel
	// and re-arm pending logical timers.
	AtLogical(value float64, fn func()) Timer
	// Cancel cancels a pending timer (nil-safe). It is exact: a cancelled
	// timer's fn never runs, so a protocol that cancels before re-arming
	// has at most one timer that can fire.
	Cancel(Timer)

	// Send transmits a message to one process.
	Send(to ID, msg Message)
	// Broadcast transmits a message to all processes (including self).
	Broadcast(msg Message)

	// Sign signs payload with this process's key.
	Sign(payload []byte) sig.Signature
	// Verify checks signer's signature over payload.
	Verify(signer ID, payload []byte, s sig.Signature) bool

	// Pulse reports that this process accepted resynchronization round
	// r (a TypePulse event; semantically "clock hit kP+alpha").
	Pulse(round int)

	// RealTime returns true real time. Correct protocols MUST NOT call
	// this (processes cannot observe real time); it exists for Byzantine
	// implementations and assertions in tests.
	RealTime() float64
}

// Protocol is a process's program.
type Protocol interface {
	// Start runs when the process boots.
	Start(Env)
	// Deliver runs when a message arrives.
	Deliver(Env, ID, Message)
}

// Deaf is implemented by a protocol whose Deliver ignores every message
// from a known real instant on: it neither changes state, nor sends, nor
// schedules, nor verifies. DeafFrom returns that instant (+Inf: never).
// The cluster then counts deliveries to the node after the later of its
// boot and that instant instead of queueing them (network.Net.SetDeafFrom),
// which changes no result.
type Deaf interface {
	DeafFrom() float64
}

// PulseRecord logs one accepted resynchronization round at one node.
type PulseRecord struct {
	Node    ID
	Round   int
	Real    float64
	Logical float64
}

// PulseLog is a probe that keeps one PulseRecord per TypePulse event, in
// stream order: the global event order on a cluster's Engine bus.
type PulseLog struct {
	Records []PulseRecord
}

// OnEvent implements probe.Probe.
func (l *PulseLog) OnEvent(ev probe.Event) {
	if ev.Type == probe.TypePulse {
		l.Records = append(l.Records, PulseRecord{
			Node: ID(ev.From), Round: int(ev.Round), Real: ev.T, Logical: ev.Value,
		})
	}
}

// Node is one simulated process.
type Node struct {
	id      ID
	cluster *Cluster
	// eng, net, and probes are the node's execution home: the owning
	// shard's engine and network (at one shard, the cluster's Engine). All
	// node-side scheduling, transmission, and probe emission goes through
	// them, never through the cluster directly.
	eng     *sim.Engine
	net     *network.Net
	probes  *probe.Bus
	shard   int32
	logical *clock.Logical
	proto   Protocol
	started bool
	faulty  bool
}

var _ Env = (*Node)(nil)

// ID implements Env.
func (nd *Node) ID() ID { return nd.id }

// N implements Env.
func (nd *Node) N() int { return len(nd.cluster.Nodes) }

// F implements Env.
func (nd *Node) F() int { return nd.cluster.cfg.F }

// Faulty reports whether the node was configured as faulty.
func (nd *Node) Faulty() bool { return nd.faulty }

// Started reports whether the node has booted.
func (nd *Node) Started() bool { return nd.started }

// Clock exposes the logical clock (for metrics; protocols use the Env
// methods).
func (nd *Node) Clock() *clock.Logical { return nd.logical }

// Protocol returns the protocol instance bound to this node.
func (nd *Node) Protocol() Protocol { return nd.proto }

// LogicalTime implements Env.
func (nd *Node) LogicalTime() float64 {
	return nd.logical.Read(nd.eng.Now())
}

// HardwareTime implements Env.
func (nd *Node) HardwareTime() float64 {
	return nd.logical.Hardware().Read(nd.eng.Now())
}

// SetLogical implements Env.
func (nd *Node) SetLogical(value float64) {
	now := nd.eng.Now()
	if bus := nd.probes; bus.Active(probe.TypeResync) {
		bus.Emit(probe.Event{
			Type: probe.TypeResync, From: int32(nd.id), To: -1,
			T: now, Value: value, Aux: nd.logical.Read(now),
		})
	}
	nd.logical.SetAt(now, value)
}

// AtLogical implements Env.
func (nd *Node) AtLogical(value float64, fn func()) Timer {
	t := nd.logical.WhenReads(value)
	now := nd.eng.Now()
	if t < now {
		t = now
	}
	// Schedule through the validated API: a protocol asking for a NaN or
	// infinite logical instant (a divergent clock inversion, a NaN from
	// upstream arithmetic) is a simulation error, reported through the
	// engine's trap rather than a bare scheduling panic.
	h, err := nd.eng.At(t, fn)
	if err != nil {
		nd.eng.Fatalf("node %d: AtLogical(%v) resolves to unschedulable instant %v: %v",
			nd.id, value, t, err)
		return nil
	}
	return h
}

// Cancel implements Env.
func (nd *Node) Cancel(t Timer) {
	if t == nil {
		return
	}
	h, ok := t.(sim.Timer)
	if !ok {
		nd.eng.Fatalf("node %d: Cancel called with a foreign timer handle %T", nd.id, t)
		return
	}
	nd.eng.Cancel(h)
}

// Send implements Env.
func (nd *Node) Send(to ID, msg Message) {
	nd.net.Send(nd.id, to, msg)
}

// Broadcast implements Env.
func (nd *Node) Broadcast(msg Message) {
	nd.net.Broadcast(nd.id, msg)
}

// Sign implements Env.
func (nd *Node) Sign(payload []byte) sig.Signature {
	return nd.cluster.cfg.Scheme.Sign(nd.id, payload)
}

// Verify implements Env: the scheme's answer, by way of the memo of the
// engine the node runs on.
func (nd *Node) Verify(signer ID, payload []byte, s sig.Signature) bool {
	return nd.cluster.memos[nd.shard].Verify(signer, payload, s)
}

// Pulse implements Env: it emits TypePulse, the one channel pulses are
// observed through (a PulseLog, the harness's folds, a trace).
func (nd *Node) Pulse(round int) {
	if bus := nd.probes; bus.Active(probe.TypePulse) {
		now := nd.eng.Now()
		bus.Emit(probe.Event{
			Type: probe.TypePulse, From: int32(nd.id), To: -1,
			Round: int32(round), T: now, Value: nd.logical.Read(now),
		})
	}
}

// RealTime implements Env.
func (nd *Node) RealTime() float64 { return nd.eng.Now() }

// Config assembles a cluster.
type Config struct {
	// N is the number of processes; F the resilience parameter exposed to
	// protocols (the thresholds f+1, 2f+1 derive from it).
	N, F int
	// Seed drives all randomness (clocks, delays, keys).
	Seed int64
	// Rho is the hardware drift bound.
	Rho clock.Rho
	// Delay is the network delay policy.
	Delay network.Policy
	// Topology is the network connectivity; nil selects the full mesh.
	Topology network.Topology
	// Scheme is the signature scheme; nil selects HMAC (fast default).
	// Nodes verify through a sig.Memo per engine, so Verify must be a
	// function of its arguments alone and safe to share between shards.
	Scheme sig.Scheme
	// Clocks builds node i's hardware clock from node i's stream,
	// rand.New(sim.NewStream(Seed, i, sim.NodeStream)), of which it and
	// the clock are the only consumers. nil defaults to perfect clocks
	// (offset 0, rate 1).
	Clocks func(i int, rng *rand.Rand) *clock.Hardware
	// Protocols builds node i's program.
	Protocols func(i int) Protocol
	// Faulty marks nodes as Byzantine (affects bookkeeping only; their
	// behaviour is whatever protocol Protocols returns for them).
	Faulty map[int]bool
	// StartAt optionally delays a node's boot to the given virtual time
	// (used for reintegration experiments). Zero means boot at time 0.
	StartAt map[int]float64
	// SlewRate is every logical clock's slew rate (clock.NewLogical).
	// When positive, adjustments are amortized instead of jumping: the
	// adjustment moves toward its target at SlewRate logical units per
	// local time unit, keeping logical clocks continuous and strictly
	// monotone (the paper's amortization remark). Must be < 1.
	SlewRate float64
	// Shards partitions the nodes across that many shard engines
	// (conservative PDES — see sim.Shards); 0 and 1 run one engine with no
	// worker goroutine. More than one needs a positive Lookahead; results
	// are bit-identical at any shard count. Values above N are clamped to N.
	Shards int
	// Lookahead is the network's minimum delivery delay (the safe-window
	// width). Obtain it with network.Lookahead(cfg.Delay); with a
	// non-positive lookahead the cluster runs on one shard.
	Lookahead float64
}

// Cluster wires N nodes to k shard engines, a network each, and a global
// engine, which at k = 1 is the one engine.
type Cluster struct {
	// Engine is the cluster-level engine, the coordinator's global one.
	// Its clock is always the simulation frontier, its probe bus always
	// carries the full merged observation stream, and cluster-level
	// scheduling (samplers, markers) belongs on it.
	Engine *sim.Engine
	Nodes  []*Node

	cfg    Config
	probes *probe.Bus

	// memos holds one signature memo per shard engine, so that each is
	// touched by one goroutine only.
	memos []*sig.Memo

	coord *sim.Shards
	nets  []*network.Net
	owner []int32
}

// NewCluster builds the cluster; call Start, then Run, then Close.
func NewCluster(cfg Config) *Cluster {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("node: invalid N=%d", cfg.N))
	}
	if cfg.Protocols == nil {
		panic("node: Config.Protocols is required")
	}
	if cfg.Scheme == nil {
		cfg.Scheme = sig.NewHMAC(cfg.N, cfg.Seed)
	}
	if cfg.Delay == nil {
		cfg.Delay = network.Fixed{D: 0.001}
	}
	k := min(max(cfg.Shards, 1), cfg.N)
	if !(cfg.Lookahead > 0) {
		k = 1
	}
	c := &Cluster{cfg: cfg, coord: sim.NewShards(cfg.Seed, k, cfg.Lookahead)}
	c.Engine = c.coord.Global()
	// Contiguous balanced placement; every faulty node is co-located on
	// the last shard, because adversarial protocol instances may share
	// coordination state (a collusion pool) that they mutate at boot — one
	// shard serializes those accesses. Placement affects only which worker
	// runs a node, never the event order.
	c.owner = make([]int32, cfg.N)
	for i := range c.owner {
		c.owner[i] = int32(i * k / cfg.N)
	}
	for id, f := range cfg.Faulty {
		if f && id >= 0 && id < cfg.N {
			c.owner[id] = int32(k - 1)
		}
	}
	c.nets = network.NewSharded(c.coord, cfg.N, cfg.Delay, cfg.Topology, c.owner)
	c.probes = c.Engine.Probes()
	c.memos = make([]*sig.Memo, k)
	for i := range c.memos {
		c.memos[i] = sig.NewMemo(cfg.Scheme, cfg.N)
	}
	for i := 0; i < cfg.N; i++ {
		shard := c.owner[i]
		eng, net := c.coord.Shard(int(shard)), c.nets[shard]
		// Node i's stream derives from (seed, i) alone, so a clock is
		// invariant under construction and boot order and under sharding.
		var hw *clock.Hardware
		if cfg.Clocks != nil {
			hw = cfg.Clocks(i, rand.New(sim.NewStream(cfg.Seed, i, sim.NodeStream)))
		} else {
			hw = clock.NewConstant(0, 1, cfg.Rho)
		}
		nd := &Node{
			id:      i,
			cluster: c,
			eng:     eng,
			net:     net,
			probes:  eng.Probes(),
			shard:   shard,
			logical: clock.NewLogical(hw, cfg.SlewRate),
			proto:   cfg.Protocols(i),
			faulty:  cfg.Faulty[i],
		}
		c.Nodes = append(c.Nodes, nd)
	}
	if deafFrom := c.deafness(); deafFrom != nil {
		for _, nt := range c.nets {
			nt.SetDeafFrom(deafFrom)
		}
	}
	return c
}

// deafness returns, per node, the instant after which a delivery to it is
// unobservable — the later of its boot and its protocol's DeafFrom, +Inf
// for a node that listens — or nil when every node listens. It runs before
// any shard does; the shards' networks then share it read-only.
func (c *Cluster) deafness() []sim.Time {
	var deafFrom []sim.Time
	for i, nd := range c.Nodes {
		d, ok := nd.proto.(Deaf)
		if !ok {
			continue
		}
		from := max(c.cfg.StartAt[i], d.DeafFrom())
		if !(from < math.Inf(1)) { // +Inf or NaN: the node listens
			continue
		}
		if deafFrom == nil {
			deafFrom = make([]sim.Time, len(c.Nodes))
			for j := range deafFrom {
				deafFrom[j] = math.Inf(1)
			}
		}
		deafFrom[i] = from
	}
	return deafFrom
}

// Start boots every node at its configured start time. A node's delivery
// handler is registered by its boot, so traffic reaching a node that has
// not booted is lost at the far end and accounted as such
// (Stats.DroppedOffline, probe.TypeMessageDropOffline). Boot events are
// scheduled on the node's own lane (and, in a sharded run, on the node's
// own shard engine): the boot and everything the protocol's Start
// schedules belong to the node, so the event keys — and therefore the
// execution order — are identical at every shard count.
func (c *Cluster) Start() {
	for _, nd := range c.Nodes {
		nd := nd
		at := c.cfg.StartAt[nd.id]
		nd.eng.MustAtLane(int32(nd.id), at, func() {
			nd.started = true
			nd.net.Register(nd.id, func(from ID, msg Message) {
				nd.proto.Deliver(nd, from, msg)
			})
			if nd.probes.Active(probe.TypeNodeBoot) {
				nd.probes.Emit(probe.Event{
					Type: probe.TypeNodeBoot, From: int32(nd.id), To: -1,
					T: nd.eng.Now(),
				})
			}
			nd.proto.Start(nd)
		})
	}
}

// LogPulses attaches a PulseLog to the cluster's bus and returns it. Call
// it before Run: the log holds the pulses of the runs that follow.
func (c *Cluster) LogPulses() *PulseLog {
	l := &PulseLog{}
	c.probes.Attach(l, probe.TypePulse)
	return l
}

// Run runs the cluster until the horizon across its shard engines. It may
// be called repeatedly with increasing horizons.
func (c *Cluster) Run(until float64) { c.coord.Run(until) }

// Close releases the shard worker goroutines, of which one shard has none;
// the cluster remains readable (clocks, stats) but cannot Run again.
func (c *Cluster) Close() { c.coord.Close() }

// NetStats returns the run's traffic counters: the deterministic sum of
// the per-shard networks'.
func (c *Cluster) NetStats() network.Stats { return network.MergeStats(c.nets) }

// RuntimeStats counts what the simulator did, as opposed to what it
// simulated: payload arena and mailbox traffic, event-queue memory and
// re-organisations, signature checks asked for and actually computed. No
// result depends on it, and it may differ between shard counts.
type RuntimeStats struct {
	Arena  network.RuntimeStats
	Ladder sim.LadderStats
	Sig    sig.MemoStats
}

// RuntimeStats sums the per-engine and per-network counters — high-waters
// too, as every shard owns its own arena and chunk pool — counting each
// engine once: at one shard the global engine is shard 0's. They are plain
// integers each owned by one shard: read them between Run calls.
func (c *Cluster) RuntimeStats() RuntimeStats {
	var rs RuntimeStats
	for _, m := range c.memos {
		s := m.Stats()
		rs.Sig.Asked += s.Asked
		rs.Sig.Computed += s.Computed
		rs.Sig.Rejected += s.Rejected
	}
	add := func(l sim.LadderStats) {
		rs.Ladder.Seals += l.Seals
		rs.Ladder.Sealed += l.Sealed
		rs.Ladder.Timers += l.Timers
		rs.Ladder.Tombstones += l.Tombstones
		rs.Ladder.Chunks += l.Chunks
		rs.Ladder.Recycled += l.Recycled
		rs.Ladder.FreeHigh += l.FreeHigh
		rs.Ladder.GrowCopies += l.GrowCopies
		rs.Ladder.Spills += l.Spills
		rs.Ladder.Unseals += l.Unseals
		rs.Ladder.Reanchors += l.Reanchors
		rs.Ladder.Shifted += l.Shifted
	}
	if c.Engine != c.coord.Shard(0) {
		add(c.Engine.LadderStats())
	}
	for i, nt := range c.nets {
		a := nt.RuntimeStats()
		rs.Arena.SlotsHigh += a.SlotsHigh
		rs.Arena.Slots += a.Slots
		rs.Arena.Refs += a.Refs
		rs.Arena.Mailbox += a.Mailbox
		rs.Arena.Deaf += a.Deaf
		add(c.coord.Shard(i).LadderStats())
	}
	return rs
}

// Shards reports the number of shard engines (1 = serial).
func (c *Cluster) Shards() int { return c.coord.K() }

// CorrectIDs returns the IDs of non-faulty nodes that have booted by now.
func (c *Cluster) CorrectIDs() []ID {
	var out []ID
	for _, nd := range c.Nodes {
		if !nd.faulty && nd.started {
			out = append(out, nd.id)
		}
	}
	return out
}

// ReadLogical returns node id's logical clock at the current instant.
func (c *Cluster) ReadLogical(id ID) float64 {
	return c.Nodes[id].logical.Read(c.Engine.Now())
}

// Skew returns the max pairwise difference of the logical clocks of the
// given nodes at the current virtual time.
func (c *Cluster) Skew(ids []ID) float64 {
	if len(ids) == 0 {
		return 0
	}
	lo, hi := c.ReadLogical(ids[0]), c.ReadLogical(ids[0])
	for _, id := range ids[1:] {
		v := c.ReadLogical(id)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
