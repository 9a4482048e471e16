// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual "real time" clock (float64 seconds) and
// two event tiers sharing one global Key order (see key.go): a two-level
// ladder/calendar queue of value-inline message events (the O(n^2)
// steady-state path — see ladder.go) and a binary heap of closure events
// (timers), which escape to callers and support Cancel. The order is
// locally computable — (instant, scheduling instant, lane, per-lane
// sequence) — so the same total order is produced whether one engine runs
// every event (the serial reference) or a Shards coordinator partitions
// the lanes across worker goroutines (shards.go); together with seeded,
// per-entity random streams this makes every simulation fully
// reproducible, bit-for-bit, at any shard count.
//
// A serial engine is single-threaded by design: distributed-system
// "concurrency" is modelled by event interleaving, not goroutines. The
// sharded engine keeps that discipline per shard — each shard engine is
// only ever driven by one goroutine at a time, with barriers between
// windows — so simulations stay deterministic and race-free.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"optsync/internal/probe"
)

// Time is virtual real time in seconds since the start of the simulation.
type Time = float64

// Message is a value-typed event payload routed to a registered
// Dispatcher instead of a heap-allocated closure. The engine treats every
// field as opaque; by convention one event is one delivery, From/To are
// its endpoint ids, and Index is a slot in a dispatcher-owned arena
// holding the real payload — or, when the dispatcher's Flags say so, the
// scalar fields carry the entire payload inline and the event never
// touches an arena at all. Either way the steady-state message path
// stays allocation-free. Message is 20 bytes of 32-bit fields, so a queued
// event (Key, Message, target) is 48.
type Message struct {
	// From and To are the sender and the recipient (dispatcher-defined).
	From, To int32
	// Kind is a dispatcher-defined discriminator.
	Kind uint16
	// Flags carries dispatcher-defined bits (e.g. "payload is inline").
	Flags uint16
	// Index addresses the payload in the dispatcher's arena.
	Index uint32
	// Round is a dispatcher-defined inline payload scalar: envelopes that
	// fit it (with Kind) skip the arena and ride the event queue as one
	// self-contained value.
	Round int32
}

// Dispatcher consumes value-typed message events at their delivery time.
// Implementations own the arena Message.Index points into.
type Dispatcher interface {
	Dispatch(now Time, m Message)
}

// Event is a scheduled callback. It is returned by the scheduling methods
// so that callers can cancel it before it fires. Message events (AtMsg)
// ride the ladder queue as inline values instead and have no handle.
type Event struct {
	key      Key
	fn       func()
	index    int // heap index, -1 when not queued
	canceled bool
}

// At returns the virtual time at which the event is (or was) scheduled.
func (e *Event) At() Time { return e.key.At }

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e.index >= 0 }

// ErrPastTime is returned when scheduling an event before the current
// virtual time.
var ErrPastTime = errors.New("sim: schedule time is in the past")

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Engine struct {
	now  Time
	seed int64
	// laneSeq holds the per-lane scheduling counters, indexed lane+1
	// (slot 0 is LaneGlobal). Together with Cause they replace the old
	// single global sequence: every lane's counter advances identically
	// in serial and sharded execution.
	laneSeq []uint32
	// curLane is the lane of the event currently executing (LaneGlobal
	// outside event execution); scheduling calls inherit it.
	curLane int32
	// execKey is the key of the event currently executing and emitSeq
	// counts the observations (probe events, pulses) it has produced —
	// the tag the sharded engine's per-shard buffers merge on.
	execKey Key
	emitSeq uint32
	// closures is the heap tier: cancellable callback events only.
	closures eventQueue
	// ladder is the message tier: value-inline, near-O(1) scheduling.
	ladder      ladder
	perID       map[int]*rand.Rand
	processed   uint64
	dispatchers []Dispatcher
	// probes is the run's observation bus. The engine owns it so every
	// layer sharing the engine (network, nodes, samplers) shares one
	// event stream; the engine itself emits nothing. In a sharded run
	// each shard engine's bus mirrors the coordinator's subscriptions
	// through a buffering recorder (see shards.go).
	probes probe.Bus
	// Trap, if non-nil, is invoked with every panic message raised via
	// Fatalf; by default Fatalf panics.
	Trap func(format string, args ...any)
}

// New returns an engine whose random streams (see RandFor) derive from
// seed. Deliberately *not* crypto-random: reproducibility is the point.
func New(seed int64) *Engine {
	return &Engine{seed: seed, curLane: LaneGlobal}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Probes returns the engine's observation bus. Attach probes before the
// engine runs; emission sites across sim/network/node guard with
// Bus.Active so an empty bus costs nothing.
func (e *Engine) Probes() *probe.Bus { return &e.probes }

// Seed returns the seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// RandFor returns node id's deterministic random stream: rand.New over
// NewStream(seed, id, NodeStream), so what a caller draws depends on the
// engine seed and id alone, never on how many draws other components made
// before it asked — per-node randomness is invariant under registration
// and boot reordering, and under sharding. Repeated calls with the same
// id return the same (stateful) stream.
func (e *Engine) RandFor(id int) *rand.Rand {
	if r, ok := e.perID[id]; ok {
		return r
	}
	if e.perID == nil {
		e.perID = make(map[int]*rand.Rand)
	}
	r := rand.New(NewStream(e.seed, id, NodeStream))
	e.perID[id] = r
	return r
}

// RegisterDispatcher installs d and returns the target id to pass to
// AtMsg. Dispatchers cannot be unregistered: the id is an index into an
// append-only table, kept trivially stable for the life of the engine.
func (e *Engine) RegisterDispatcher(d Dispatcher) int {
	if d == nil {
		panic("sim: RegisterDispatcher(nil)")
	}
	e.dispatchers = append(e.dispatchers, d)
	return len(e.dispatchers) - 1
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.closures) + e.ladder.count }

// LadderStats returns the message queue's counters so far.
func (e *Engine) LadderStats() LadderStats { return e.ladder.stats }

// nextSeq takes the next per-lane sequence number.
func (e *Engine) nextSeq(lane int32) uint32 {
	i := int(lane) + 1
	for len(e.laneSeq) <= i {
		e.laneSeq = append(e.laneSeq, 0)
	}
	s := e.laneSeq[i]
	e.laneSeq[i] = s + 1
	if s+1 == 0 {
		e.Fatalf("lane %d scheduling sequence overflow", lane)
	}
	return s
}

// TakeKey allocates the ordering key a message scheduled now for instant
// at would receive: the current scheduling lane and its next sequence
// number. It is the cross-shard send path's half of AtMsg — the sender's
// engine assigns the key (so local and remote transmissions consume one
// per-lane sequence each, exactly as a serial run would), and the owning
// shard's engine enqueues it later via ScheduleMsg.
func (e *Engine) TakeKey(at Time) Key {
	return Key{At: at, Cause: e.now, Lane: e.curLane, Seq: e.nextSeq(e.curLane)}
}

// ScheduleMsg enqueues a message event under a key previously allocated
// with TakeKey (possibly by another shard's engine). The key must not be
// behind this engine's clock — in a sharded run that would mean the
// lookahead bound was violated.
func (e *Engine) ScheduleMsg(k Key, target int, m Message) {
	if k.At < e.now {
		e.Fatalf("ScheduleMsg at %v behind engine clock %v (lookahead violation?)", k.At, e.now)
		return
	}
	if target < 0 || target >= len(e.dispatchers) {
		e.Fatalf("ScheduleMsg: unknown dispatch target %d", target)
		return
	}
	e.ladder.push(e.now, msgEvent{key: k, msg: m, target: int32(target)})
}

// SetExecLane rebinds the current scheduling lane mid-event. It exists
// for message dispatchers: a message event is keyed on the sender's lane,
// but the recipient's handler must schedule on its own lane (the
// recipient's timers and relays belong to the recipient, not to the
// sender). The engine restores LaneGlobal after the event.
func (e *Engine) SetExecLane(lane int32) { e.curLane = lane }

// ExecTag returns the key of the event currently executing plus the next
// observation sequence number within it. Per-shard observation buffers
// (probe events, pulse records) tag entries with it so a k-way merge at
// the window barrier reproduces the serial emission order exactly.
func (e *Engine) ExecTag() (Key, uint32) {
	s := e.emitSeq
	e.emitSeq++
	return e.execKey, s
}

// At schedules fn to run at virtual time t on the current scheduling lane.
// Scheduling at the current time is allowed (the event runs after all
// previously scheduled events for that time). Scheduling in the past
// returns ErrPastTime.
func (e *Engine) At(t Time, fn func()) (*Event, error) {
	return e.AtLane(e.curLane, t, fn)
}

// AtLane schedules fn to run at virtual time t on an explicit scheduling
// lane. Use it from initialization code to place node-owned events (boot
// closures) on the node's lane, where the sharded engine will run them on
// the node's shard; everything else should use At, which inherits the
// executing event's lane. Cross-lane scheduling at the current instant
// from inside a running simulation is a fatal error when it would land
// behind the execution frontier: the event order could then differ
// between serial and sharded runs.
func (e *Engine) AtLane(lane int32, t Time, fn func()) (*Event, error) {
	if t < e.now {
		return nil, fmt.Errorf("%w: t=%v now=%v", ErrPastTime, t, e.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("sim: invalid event time %v", t)
	}
	k := Key{At: t, Cause: e.now, Lane: lane, Seq: e.nextSeq(lane)}
	if lane != e.curLane && e.processed > 0 && k.Less(e.execKey) {
		e.Fatalf("cross-lane event (lane %d, t=%v) scheduled behind the execution frontier (lane %d, t=%v)",
			lane, t, e.curLane, e.execKey.At)
	}
	ev := &Event{key: k, fn: fn, index: -1}
	heap.Push(&e.closures, ev)
	return ev, nil
}

// MustAtLane is AtLane for callers that have already validated t; it
// panics on error.
func (e *Engine) MustAtLane(lane int32, t Time, fn func()) *Event {
	ev, err := e.AtLane(lane, t, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// AtMsg schedules a value-typed message event for virtual time t, to be
// delivered to the dispatcher registered under target. The event is keyed
// to the current scheduling lane (the sender executing right now), so a
// broadcast's recipients inherit the sender's per-lane sequence in
// recipient order. Message events are stored inline in the ladder queue:
// in steady state AtMsg performs no heap allocation and no heap
// reorganization. They cannot be individually canceled (no handle
// escapes); cancellation belongs to the dispatcher's own arena
// bookkeeping.
func (e *Engine) AtMsg(t Time, target int, m Message) error {
	if t < e.now {
		return fmt.Errorf("%w: t=%v now=%v", ErrPastTime, t, e.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("sim: invalid event time %v", t)
	}
	if target < 0 || target >= len(e.dispatchers) {
		return fmt.Errorf("sim: unknown dispatch target %d", target)
	}
	k := Key{At: t, Cause: e.now, Lane: e.curLane, Seq: e.nextSeq(e.curLane)}
	e.ladder.push(e.now, msgEvent{key: k, msg: m, target: int32(target)})
	return nil
}

// MustAtMsg is AtMsg for callers that have already validated t and target;
// it panics on error.
func (e *Engine) MustAtMsg(t Time, target int, m Message) {
	if err := e.AtMsg(t, target, m); err != nil {
		panic(err)
	}
}

// MustAt is At for callers that have already validated t; it panics on error.
func (e *Engine) MustAt(t Time, fn func()) *Event {
	ev, err := e.At(t, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// After schedules fn to run d seconds of virtual time from now. Negative
// delays clamp to zero (run after the already-scheduled events for the
// current instant); NaN and infinite delays are errors.
func (e *Engine) After(d Time, fn func()) (*Event, error) {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return nil, fmt.Errorf("sim: invalid delay %v", d)
	}
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// MustAfter is After for callers that have already validated d; it panics
// on error.
func (e *Engine) MustAfter(d Time, fn func()) *Event {
	ev, err := e.After(d, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// Cancel removes a pending event so that it never fires. Canceling a fired
// or already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	ev.canceled = true
	heap.Remove(&e.closures, ev.index)
}

// Step executes the single next event, advancing virtual time to it.
// It returns false when the queue is empty.
//
//syncsim:hotpath
func (e *Engine) Step() bool {
	_, closure, ok := e.head()
	if ok {
		e.exec(closure)
	}
	return ok
}

// head returns the key of the earliest pending event and whether it is the
// closure heap's head or the ladder's; exec consumes what it reported, so
// the run loops look at the queues once per event.
//
//syncsim:hotpath
func (e *Engine) head() (k Key, closure, ok bool) {
	k, ok = e.ladder.peek()
	if len(e.closures) > 0 {
		if c := e.closures[0]; !ok || c.key.Less(k) {
			return c.key, true, true
		}
	}
	return k, false, ok
}

// exec executes the event head just reported.
//
//syncsim:hotpath
func (e *Engine) exec(closure bool) {
	e.processed++
	e.emitSeq = 0
	if closure {
		c := heap.Pop(&e.closures).(*Event)
		e.now = c.key.At
		e.execKey, e.curLane = c.key, c.key.Lane
		c.fn()
	} else {
		m := e.ladder.pop()
		e.now = m.key.At
		// Message events order on the sender's lane but execute recipient
		// code: the dispatcher rebinds the lane to the recipient (SetExecLane).
		e.execKey, e.curLane = m.key, LaneGlobal
		e.dispatchers[m.target].Dispatch(e.now, m.msg)
	}
	e.curLane = LaneGlobal
}

// runBefore executes every pending event ordering strictly before bound,
// including events those events schedule, in key order. It is the shard
// worker's inner loop: bound is the window's safe horizon.
func (e *Engine) runBefore(bound Key) {
	for {
		k, closure, ok := e.head()
		if !ok || !k.Less(bound) {
			return
		}
		e.exec(closure)
	}
}

// advanceTo moves the engine clock forward to t without executing
// anything (the window barrier's frontier advance). Earlier t is a no-op.
func (e *Engine) advanceTo(t Time) {
	if e.now < t {
		e.now = t
	}
}

// Run executes events until the queue is empty or the next event is
// strictly after until. Virtual time is advanced to until at the end, so
// subsequent scheduling is relative to the horizon.
func (e *Engine) Run(until Time) {
	for {
		k, closure, ok := e.head()
		if !ok || k.At > until {
			break
		}
		e.exec(closure)
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue is empty or limit events were
// processed. It returns the number of events processed by this call. A
// limit of 0 means no limit.
func (e *Engine) RunAll(limit uint64) uint64 {
	var count uint64
	for e.Pending() > 0 {
		if limit > 0 && count >= limit {
			break
		}
		e.Step()
		count++
	}
	return count
}

// Fatalf reports a fatal simulation error. By default it panics; tests can
// install a Trap to capture it.
func (e *Engine) Fatalf(format string, args ...any) {
	if e.Trap != nil {
		e.Trap(format, args...)
		return
	}
	panic(fmt.Sprintf("sim: "+format, args...))
}

// eventQueue is a binary heap of closure events in key order.
type eventQueue []*Event

var _ heap.Interface = (*eventQueue)(nil)

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool { return q[i].key.Less(q[j].key) }

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
