// Package network simulates the message-passing network of the model:
// processes are joined by reliable, authenticated channels whose delay is
// chosen by the adversary within [dmin, dmax].
//
// Delays are produced by pluggable policies; adversarial policies may treat
// links with a faulty endpoint specially (e.g. deliver instantly to
// co-conspirators) and may drop messages on such links — the model maps
// link failures to node failures, so links between two correct processes
// are always reliable and within bounds, which the Net enforces.
//
// Connectivity is produced by a pluggable Topology (full mesh by default;
// WAN regions, sparse graphs, and scheduled partition churn are built in —
// see topology.go).
//
// There is one message path. Send and Broadcast run the same per-link
// sequence (linked → transmit → place), Broadcast being exactly Send to
// each recipient in ascending id order: the model delays every copy
// independently, so every copy is its own event — of one shared envelope.
// place has three outcomes — a kind-and-round envelope rides the sim event
// inline, any other envelope parks in a recycled arena slot that the
// broadcast's first local copy takes and every further one references (the
// arena holds what is in flight per broadcast, not per recipient), and a
// recipient owned by another shard goes to that shard's mailbox by value,
// to get a slot there — and Dispatch has one delivery body that undoes
// whichever it was. Serial and sharded runs execute the same code; shard
// ownership is consulted in place alone. In steady state the path performs
// no allocation.
//
// A delivery nobody can observe is not an event. When the cluster says a
// recipient is deaf from some instant on (SetDeafFrom: its protocol ignores
// every message from then, and its handler is registered by then) and no
// probe subscribes to message_delivered, place counts a copy landing
// strictly after that instant instead of scheduling it: the copy takes the
// sender lane's sequence number as a scheduled one would, so every other
// event keeps its key, and its instant waits in a tally that moves into
// Stats.Delivered once the engine clock reaches it. It takes no arena
// reference, mailbox copy, queued event or dispatch.
//
// Observation goes through the engine's probe bus: every send, delivery,
// and drop emits a typed probe.Event behind a Bus.Active guard, so an
// uninstrumented run pays one predictable branch per message and an
// instrumented one stays allocation-free.
package network

import (
	"fmt"
	"math"
	"math/rand"

	"optsync/internal/probe"
	"optsync/internal/sim"
)

// NodeID identifies a process (0..n-1).
type NodeID = int

// Handler receives a delivered message.
type Handler func(from NodeID, msg Message)

// Policy decides the delay of each message. Implementations must be
// deterministic given rng.
type Policy interface {
	// Delay returns the delivery delay in seconds for a message sent at
	// virtual time now. A negative return drops the message.
	Delay(from, to NodeID, now sim.Time, rng *rand.Rand) float64
}

// Stats aggregates traffic counters. The three drop counters are
// disjoint: Dropped is charged by the delay policy at send time,
// DroppedLink at send time when the topology provides no usable link
// (such transmissions are not counted in Sent — nothing was put on a
// wire), and DroppedOffline at delivery time when the destination has no
// registered handler. Sent therefore equals Delivered + Dropped +
// DroppedOffline + in-flight, where in-flight includes the deliveries to a
// deaf recipient that were counted rather than queued and are not yet due.
type Stats struct {
	Sent      uint64
	Delivered uint64
	// Dropped counts messages the delay policy refused at send time.
	Dropped uint64
	// DroppedOffline counts messages that reached their delivery instant
	// with no handler registered (destination offline). Probes saw a
	// TypeMessageSent with a positive delivery instant for these — the
	// send was genuine; the loss happened at the far end.
	DroppedOffline uint64
	// DroppedLink counts transmissions suppressed because the topology
	// had no usable from->to link (absent edge or active partition).
	DroppedLink uint64
	// BySender counts messages sent per node.
	BySender []uint64
}

// msgInline marks a sim.Message whose scalar fields carry the whole
// envelope: Kind/Round inline, no arena slot. Envelopes that are a kind
// and a round — nil Payload, zero Src, Round within int32, Value +0.0 —
// take this path, which is the entire traffic of the O(n^2) pulse rounds:
// delivery reads one self-contained 48-byte event instead of chasing an
// arena slot.
const msgInline uint16 = 1

// inlinable reports whether msg can ride a sim event inline. The event has
// no room for Value: any value but +0.0 (-0.0 and NaN included) parks in
// the arena with its exact bits.
func inlinable(msg Message) bool {
	return msg.Payload == nil && msg.Src == 0 && math.Float64bits(msg.Value) == 0 &&
		int64(msg.Round) == int64(int32(msg.Round))
}

// Net is the simulated network.
type Net struct {
	engine   *sim.Engine
	n        int
	policy   Policy
	topo     Topology
	shaper   DelayShaper    // non-nil iff topo shapes delays
	lister   NeighborLister // non-nil iff topo enumerates neighbours
	mesh     bool           // topo is the full mesh: skip per-recipient Linked calls
	handlers []Handler
	stats    Stats
	probes   *probe.Bus // the engine's bus, cached to skip a pointer hop

	// delayRng holds one delay stream per sender, derived from the engine
	// seed and the sender id alone (see linkDelay). Streams are created
	// lazily on first transmit.
	delayRng []*rand.Rand

	target int // sim dispatch target id
	// arena holds the payload envelopes of scheduled deliveries, one slot
	// per broadcast in flight (a few per node: it is never trimmed), indexed
	// by sim.Message.Index and recycled through freeSlots so the
	// steady-state send path performs no allocation.
	arena     []slot
	freeSlots []uint32
	rt        RuntimeStats
	nbrBuf    []NodeID // reused AppendNeighbors buffer

	// deafFrom is the cluster's read-only per-recipient instant after which
	// a delivery is counted, not queued (nil: every recipient listens), and
	// deafDue holds the instants of the counted deliveries not yet settled
	// into stats.Delivered.
	deafFrom []sim.Time
	deafDue  []sim.Time

	// Sharded-execution context, zero in a serial run. Each shard of a
	// parallel simulation owns one Net over its own shard engine; owner
	// maps every node id to its shard, and sends to a node owned
	// elsewhere are buffered into outbox[dstShard] (the sender's engine
	// assigns the event key, so ordering is exactly the local order) and
	// exchanged at the window barrier — see NewSharded.
	shard  int32
	owner  []int32
	outbox [][]outMsg
}

// slot is one parked payload envelope and the count of scheduled deliveries
// that have yet to read it. 32 bits: one broadcast reaches up to n nodes.
type slot struct {
	msg  Message
	refs uint32
}

// noSlot is the slot cursor before a copy has parked the envelope. The
// cursor lives on its Send's or Broadcast's stack, not in Net: a probe may
// re-enter either from OnEvent.
const noSlot = ^uint32(0)

// RuntimeStats counts what the payload arena and the mailboxes did. It
// describes the simulator, not the simulation: no result depends on it.
type RuntimeStats struct {
	SlotsHigh uint64 // most arena slots in use at once
	Slots     uint64 // slots taken: one per payload sent with a local recipient, one per mailbox payload
	Refs      uint64 // deliveries scheduled against a slot
	Mailbox   uint64 // transmissions parked for another shard
	Deaf      uint64 // deliveries to a deaf recipient, counted without an event
}

// outMsg is one cross-shard transmission parked in a mailbox until the
// window barrier: the sender-assigned event key plus the envelope, which
// the destination shard packs into its own engine's event (and, for a
// payload, its own arena) at exchange time.
type outMsg struct {
	key      sim.Key
	from, to int32
	msg      Message
}

// New creates a network of n endpoints over the engine with the given
// delay policy and topology. A nil topology selects the full mesh (the
// model's default); results under FullMesh are byte-identical to the
// pre-topology network.
func New(engine *sim.Engine, n int, policy Policy, topo Topology) *Net {
	if policy == nil {
		panic("network: nil policy")
	}
	if topo == nil {
		topo = FullMesh{}
	}
	nt := &Net{
		engine:   engine,
		n:        n,
		policy:   policy,
		topo:     topo,
		handlers: make([]Handler, n),
		stats:    Stats{BySender: make([]uint64, n)},
		probes:   engine.Probes(),
	}
	if s, ok := topo.(DelayShaper); ok {
		nt.shaper = s
	}
	if l, ok := topo.(NeighborLister); ok {
		nt.lister = l
	}
	_, nt.mesh = topo.(FullMesh)
	nt.target = engine.RegisterDispatcher(nt)
	return nt
}

// NewSharded creates the k per-shard networks of a parallel simulation:
// one Net per shard engine, sharing one policy and topology, with owner
// mapping each node id to the shard that simulates it. Handlers must be
// registered on the owning shard's Net. The mailbox exchange is
// registered as a coordinator barrier hook, so cross-shard deliveries
// scheduled during a window reach their owner before the next window
// opens — the dmin lookahead guarantees they are never late. At k = 1 it
// is one Net, with no owner map and no exchange: every recipient is local.
func NewSharded(coord *sim.Shards, n int, policy Policy, topo Topology, owner []int32) []*Net {
	if len(owner) != n {
		panic(fmt.Sprintf("network: owner map covers %d of %d nodes", len(owner), n))
	}
	k := coord.K()
	if k == 1 {
		return []*Net{New(coord.Shard(0), n, policy, topo)}
	}
	nets := make([]*Net, k)
	for i := range nets {
		nt := New(coord.Shard(i), n, policy, topo)
		nt.shard = int32(i)
		nt.owner = owner
		nt.outbox = make([][]outMsg, k)
		nets[i] = nt
	}
	coord.OnBarrier(func() { exchange(nets) })
	return nets
}

// exchange drains every cross-shard mailbox at a window barrier. It runs
// single-threaded on the coordinator goroutine; iteration order is fixed
// (src-major) for reproducibility, though event order is fully determined
// by the sender-assigned keys regardless.
func exchange(nets []*Net) {
	for _, src := range nets {
		for dst, box := range src.outbox {
			if len(box) == 0 {
				continue
			}
			dn := nets[dst]
			for i := range box {
				om := &box[i]
				cur := noSlot // a mailbox copy gets a slot of its own
				dn.engine.ScheduleMsg(om.key, dn.target, dn.pack(NodeID(om.from), NodeID(om.to), om.msg, &cur))
				*om = outMsg{} // release the payload reference
			}
			src.outbox[dst] = box[:0]
		}
	}
}

// MergeStats sums per-shard traffic counters into the totals a serial run
// would report. Sends are counted on the sender's shard and deliveries on
// the recipient's, so the disjoint-counter invariant documented on Stats
// survives the merge unchanged.
func MergeStats(nets []*Net) Stats {
	if len(nets) == 1 {
		return nets[0].Stats()
	}
	out := Stats{BySender: make([]uint64, nets[0].n)}
	for _, nt := range nets {
		nt.settle()
		out.Sent += nt.stats.Sent
		out.Delivered += nt.stats.Delivered
		out.Dropped += nt.stats.Dropped
		out.DroppedOffline += nt.stats.DroppedOffline
		out.DroppedLink += nt.stats.DroppedLink
		for i, c := range nt.stats.BySender {
			out.BySender[i] += c
		}
	}
	return out
}

// N returns the number of endpoints.
func (nt *Net) N() int { return nt.n }

// Topology returns the connectivity in force.
func (nt *Net) Topology() Topology { return nt.topo }

// Register installs the delivery handler for id, once, when the node boots
// (node.Cluster.Start's boot event is the only caller): a message reaching
// id earlier is dropped offline, and none later is. SetDeafFrom relies on
// that contract: a handler registered at boot is there for every later
// delivery.
func (nt *Net) Register(id NodeID, h Handler) {
	nt.checkID(id)
	nt.handlers[id] = h
}

// SetDeafFrom hands the network the cluster's per-recipient deafness: a
// delivery to `to` strictly after deafFrom[to] is one the recipient's
// protocol ignores, by a registered handler, so it is counted rather than
// queued while no probe subscribes to message_delivered (+Inf: the node
// listens; nil: every node does), one instant per node. The slice is
// shared read-only by every shard's Net. Attach probes before the run: a
// delivery already counted is not reported.
func (nt *Net) SetDeafFrom(deafFrom []sim.Time) { nt.deafFrom = deafFrom }

// Probes returns the observation bus messages are reported on (the
// engine's). Traffic probes subscribe to probe.MessageTypes().
func (nt *Net) Probes() *probe.Bus { return nt.probes }

// RuntimeStats returns the arena and mailbox counters so far.
func (nt *Net) RuntimeStats() RuntimeStats { return nt.rt }

// Stats returns a copy of the traffic counters. Delivered includes the
// counted deliveries due by the engine clock, so the counters are exact
// between Run calls, when every event due by the clock has run.
func (nt *Net) Stats() Stats {
	nt.settle()
	s := nt.stats
	s.BySender = append([]uint64(nil), nt.stats.BySender...)
	return s
}

// senderRand returns the delay stream of one sender: rand.New over
// sim.NewStream(engine seed, sender id, sim.DelayStream), 64 bytes a
// sender. Draw order within a stream is the sender's own transmit order,
// which is identical in serial and sharded runs — a stream shared between
// senders would be drawn in the global interleaving, which shards cannot
// reproduce.
func (nt *Net) senderRand(from NodeID) *rand.Rand {
	if nt.delayRng == nil {
		nt.delayRng = make([]*rand.Rand, nt.n)
	}
	r := nt.delayRng[from]
	if r == nil {
		r = rand.New(sim.NewStream(nt.engine.Seed(), from, sim.DelayStream))
		nt.delayRng[from] = r
	}
	return r
}

// linkDelay runs the policy plus the topology's delay shaping for one
// usable link, drawing randomness from the sender's delay stream.
// Negative means dropped.
func (nt *Net) linkDelay(from, to NodeID, now sim.Time) float64 {
	rng := nt.senderRand(from)
	d := nt.policy.Delay(from, to, now, rng)
	if d >= 0 && nt.shaper != nil {
		d = nt.shaper.Shape(from, to, now, d, rng)
	}
	return d
}

// linked is the topology gate of one transmission: it reports whether
// the from->to link is usable now, charging and reporting the suppressed
// transmission when it is not.
//
//syncsim:hotpath
func (nt *Net) linked(from, to NodeID, now sim.Time, msg Message) bool {
	if nt.mesh || nt.topo.Linked(from, to, now) {
		return true
	}
	nt.stats.DroppedLink++
	if nt.probes.Active(probe.TypeMessageDropLink) {
		nt.probes.Emit(nt.msgEvent(probe.TypeMessageDropLink, from, to, now, -1, msg))
	}
	return false
}

// transmit puts one message on a usable link: traffic accounting, delay
// resolution, probe emission, and — unless the policy dropped it —
// placement for delivery under its Send's or Broadcast's slot cursor.
//
//syncsim:hotpath
func (nt *Net) transmit(from, to NodeID, now sim.Time, msg Message, cur *uint32) {
	nt.stats.Sent++
	nt.stats.BySender[from]++
	d := nt.linkDelay(from, to, now)
	if d < 0 {
		nt.stats.Dropped++
		if nt.probes.Active(probe.TypeMessageDropPolicy) {
			nt.probes.Emit(nt.msgEvent(probe.TypeMessageDropPolicy, from, to, now, -1, msg))
		}
		return
	}
	deliverAt := now + d
	if nt.probes.Active(probe.TypeMessageSent) {
		nt.probes.Emit(nt.msgEvent(probe.TypeMessageSent, from, to, now, deliverAt, msg))
	}
	nt.place(from, to, deliverAt, msg, cur)
}

// place schedules one accepted transmission for delivery at instant at:
// on this engine when the recipient lives here, in the owning shard's
// mailbox otherwise. This is the only place shard ownership matters.
//
//syncsim:hotpath
func (nt *Net) place(from, to NodeID, at sim.Time, msg Message, cur *uint32) {
	if nt.deafFrom != nil && at > nt.deafFrom[to] && !nt.probes.Active(probe.TypeMessageDelivered) {
		nt.countDeaf(at)
		return
	}
	if nt.owner != nil && nt.owner[to] != nt.shard {
		nt.sendRemote(nt.owner[to], from, to, at, msg)
		return
	}
	nt.engine.MustAtMsg(at, nt.target, nt.pack(from, to, msg, cur))
}

// sendRemote parks one accepted transmission in shard dst's mailbox. The
// event key is taken from the sender's engine — consuming the sender
// lane's next sequence number exactly as a local schedule would — so the
// merged event order is independent of where the recipient lives.
//
//syncsim:hotpath
func (nt *Net) sendRemote(dst int32, from, to NodeID, at sim.Time, msg Message) {
	nt.rt.Mailbox++
	nt.outbox[dst] = append(nt.outbox[dst], outMsg{
		key: nt.engine.TakeKey(at), from: int32(from), to: int32(to), msg: msg,
	})
}

// countDeaf accounts one delivery to a deaf recipient without an event. It
// consumes the sender lane's next sequence number exactly as a scheduled
// copy would, and keeps the instant until it is due.
//
//syncsim:hotpath
func (nt *Net) countDeaf(at sim.Time) {
	nt.engine.TakeKey(at)
	nt.rt.Deaf++
	if len(nt.deafDue) == cap(nt.deafDue) {
		nt.makeDeafRoom()
	}
	nt.deafDue = append(nt.deafDue, at)
}

// makeDeafRoom settles a full tally and doubles it only when settling left
// it more than half full, so the tally holds about what is in flight to
// deaf recipients, a run that builds a fresh Net pays for no more, and each
// slot is settled a bounded number of times between doublings. It is the
// tally's slow path, run only when the tally is full, and stays out of
// line like append's own growth.
//
//go:noinline
func (nt *Net) makeDeafRoom() {
	nt.settle()
	if n := len(nt.deafDue); n > cap(nt.deafDue)/2 {
		nt.deafDue = append(make([]sim.Time, 0, max(2*n, 16)), nt.deafDue...)
	}
}

// settle moves the counted deliveries that are due by the engine clock into
// stats.Delivered.
func (nt *Net) settle() {
	now := nt.engine.Now()
	due := nt.deafDue[:0]
	for _, at := range nt.deafDue {
		if at <= now {
			nt.stats.Delivered++
		} else {
			due = append(due, at)
		}
	}
	nt.deafDue = due
}

// pack builds the sim event of one delivery on this engine: the scalars
// inline when the envelope fits them, otherwise a reference to the arena
// slot at *cur, which the first copy to get here takes.
//
//syncsim:hotpath
func (nt *Net) pack(from, to NodeID, msg Message, cur *uint32) sim.Message {
	if inlinable(msg) {
		return sim.Message{
			From: int32(from), To: int32(to), Kind: uint16(msg.Kind),
			Flags: msgInline, Round: int32(msg.Round),
		}
	}
	if *cur == noSlot {
		*cur = nt.alloc(msg)
	} else {
		nt.arena[*cur].refs++
	}
	nt.rt.Refs++
	return sim.Message{From: int32(from), To: int32(to), Index: *cur}
}

// msgEvent builds the probe event for one per-message moment.
//
//syncsim:hotpath
func (nt *Net) msgEvent(t probe.Type, from, to NodeID, at sim.Time, deliverAt float64, msg Message) probe.Event {
	return probe.Event{
		Type: t,
		Kind: uint16(msg.Kind),
		From: int32(from), To: int32(to),
		Round: int32(msg.Round),
		T:     at,
		Value: deliverAt,
	}
}

// alloc takes an arena slot for one payload envelope and its first
// reference, reusing a recycled slot when one is free.
//
//syncsim:hotpath
func (nt *Net) alloc(msg Message) uint32 {
	nt.rt.Slots++
	idx := uint32(len(nt.arena))
	if k := len(nt.freeSlots); k > 0 {
		idx = nt.freeSlots[k-1]
		nt.freeSlots = nt.freeSlots[:k-1]
		nt.arena[idx] = slot{msg, 1}
	} else {
		nt.arena = append(nt.arena, slot{msg, 1})
	}
	nt.rt.SlotsHigh = max(nt.rt.SlotsHigh, uint64(len(nt.arena)-len(nt.freeSlots)))
	return idx
}

// release copies the envelope out of an arena slot and drops one
// reference, recycling the slot with the last.
//
//syncsim:hotpath
func (nt *Net) release(idx uint32) Message {
	s := &nt.arena[idx]
	msg := s.msg
	if s.refs--; s.refs == 0 {
		s.msg = Message{}
		nt.freeSlots = append(nt.freeSlots, idx)
	}
	return msg
}

// Dispatch implements sim.Dispatcher: deliver one message to m.To. The
// envelope is copied out of its arena slot before the handler runs —
// handlers may send, and a reentrant send can grow or reuse the arena.
// The engine's execution lane is rebound to the recipient first:
// everything the handler schedules — relays, timers — then carries the
// recipient's lane in its event key, which is what lets a sharded run
// (where the recipient's shard does the scheduling) assign the exact keys
// a serial run assigns.
//
//syncsim:hotpath
func (nt *Net) Dispatch(now sim.Time, m sim.Message) {
	from, to := NodeID(m.From), NodeID(m.To)
	var msg Message
	if m.Flags&msgInline != 0 {
		msg = Message{Kind: Kind(m.Kind), Round: int(m.Round)}
	} else {
		msg = nt.release(m.Index)
	}
	h := nt.handlers[to]
	if h == nil {
		nt.stats.DroppedOffline++
		if nt.probes.Active(probe.TypeMessageDropOffline) {
			nt.probes.Emit(nt.msgEvent(probe.TypeMessageDropOffline, from, to, now, now, msg))
		}
		return
	}
	nt.stats.Delivered++
	if nt.probes.Active(probe.TypeMessageDelivered) {
		nt.probes.Emit(nt.msgEvent(probe.TypeMessageDelivered, from, to, now, now, msg))
	}
	nt.engine.SetExecLane(int32(to))
	h(from, msg)
}

// Send transmits msg from -> to. Delivery is scheduled according to the
// policy; a handler that is nil at delivery time drops the message at the
// far end (the destination is offline; see Stats.DroppedOffline). A send
// over a link the topology does not currently provide is suppressed
// entirely (Stats.DroppedLink).
func (nt *Net) Send(from, to NodeID, msg Message) {
	nt.checkID(from)
	nt.checkID(to)
	now := nt.engine.Now()
	if nt.linked(from, to, now, msg) {
		cur := noSlot
		nt.transmit(from, to, now, msg, &cur)
	}
}

// Broadcast sends msg from -> every endpoint the topology links to the
// sender, including the sender itself ("sends to all" in the paper
// includes the sender; self-delivery obeys the same delay bounds, which is
// the conservative reading). It is exactly Send to each recipient in
// ascending id order: every copy draws its own delay and rides its own
// event, and since one sender's events carry ascending sequence numbers,
// copies sharing a delivery instant arrive in recipient order.
//
//syncsim:hotpath
func (nt *Net) Broadcast(from NodeID, msg Message) {
	nt.checkID(from)
	now := nt.engine.Now()
	cur := noSlot
	nbrs, count := nt.neighborList(from)
	for i := 0; i < count; i++ {
		to := i
		if nbrs != nil {
			to = nbrs[i]
		} else if !nt.linked(from, to, now, msg) {
			continue
		}
		nt.transmit(from, to, now, msg, &cur)
	}
	if nbrs != nil {
		nt.stats.DroppedLink += uint64(nt.n - len(nbrs))
		nt.nbrBuf = nbrs[:0]
	}
}

// neighborList decides the sparse broadcast fast path: when the topology
// enumerates neighbours and no drop-link probe is attached, it returns
// the sender's linked set (degree+1 recipients) and its length, so the
// fan-out loop skips probing all n links — at n=65536 on a thin ring
// that is the difference between O(n·deg) and O(n²) per round. The
// listed set equals the linked set in ascending order, so stats, rng
// draws, event keys, and probe traces are byte-identical to the full
// scan; only the per-absent-link drop probe needs the scan, so an
// attached drop-link probe returns (nil, n) — the full-scan loop. The
// slice is taken from nt.nbrBuf under take-ownership-nil (a probe may
// reenter Broadcast from OnEvent): the caller must restore nt.nbrBuf
// and add n-len(nbrs) to DroppedLink when nbrs is non-nil.
func (nt *Net) neighborList(from NodeID) ([]NodeID, int) {
	if nt.lister == nil || nt.probes.Active(probe.TypeMessageDropLink) {
		return nil, nt.n
	}
	buf := nt.nbrBuf
	nt.nbrBuf = nil
	nbrs := nt.lister.AppendNeighbors(from, buf[:0])
	return nbrs, len(nbrs)
}

// checkID panics on an endpoint id outside [0, n). Not inlined, so the
// panic message's formatting stays out of the hot-path callers' bodies
// (check_hotpath_allocs.sh reads escape analysis per annotated function).
//
//go:noinline
func (nt *Net) checkID(id NodeID) {
	if id < 0 || id >= nt.n {
		panic(fmt.Sprintf("network: node id %d out of range [0,%d)", id, nt.n))
	}
}
