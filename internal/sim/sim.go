// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual "real time" clock (float64 seconds) and one
// event queue, a ladder of value-inline events (ladder.go), in one global
// Key order (key.go). Messages go to a registered Dispatcher; a timer's
// callback waits in a slab, named by a cancellable Timer handle. A Shards
// coordinator (shards.go) spreads the lanes over k engines, at k = 1 one
// engine with no worker; the order is locally computable, so every k
// produces the same total order, and with seeded per-entity random streams
// every simulation is reproducible bit-for-bit at any shard count.
//
// An engine is only ever driven by one goroutine at a time: concurrency is
// modelled by event interleaving, and shards meet at window barriers. Every
// drain goes through one loop, runBefore.
package sim

import (
	"errors"
	"fmt"
	"math"

	"optsync/internal/probe"
)

// Time is virtual real time in seconds since the start of the simulation.
type Time = float64

// Message is a value-typed event payload routed to a registered
// Dispatcher. The engine treats every field as opaque; by convention one
// event is one delivery, From/To are its endpoint ids, and Index is a slot
// in a dispatcher-owned arena holding the payload — or, as the Flags say,
// the scalar fields carry it inline. Message is 20 bytes, so a queued
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

// Timer is the handle of a scheduled callback, for cancelling it before it
// fires: a slot of the engine's timer slab and the slot's generation,
// which moves on when the timer fires or is cancelled, so a handle
// outlives its timer harmlessly. The zero Timer names no timer.
type Timer struct {
	slot, gen uint32
}

// timerSlot is one entry of the engine's timer slab. gen starts at 1 and
// skips 0 on wrap-around, so the zero Timer never matches.
type timerSlot struct {
	fn  func()
	gen uint32
}

// ErrPastTime is returned when scheduling an event before the current
// virtual time.
var ErrPastTime = errors.New("sim: schedule time is in the past")

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with New.
type Engine struct {
	now  Time
	seed int64
	// laneSeq holds the per-lane scheduling counters, indexed lane+1
	// (slot 0 is LaneGlobal), which advance identically in serial and
	// sharded execution.
	laneSeq []uint32
	// curLane is the lane of the event currently executing (LaneGlobal
	// outside event execution); scheduling calls inherit it.
	curLane int32
	// execKey is the key of the event currently executing and emitSeq
	// counts the observations (probe events, pulses) it has produced —
	// the tag the sharded engine's per-shard buffers merge on.
	execKey Key
	emitSeq uint32
	// ladder queues every event; timers is the slab timer events name by
	// slot, and free lists the released slots.
	ladder      ladder
	timers      []timerSlot
	free        []uint32
	processed   uint64
	dispatchers []Dispatcher
	// probes is the run's observation bus, shared by every layer on the
	// engine; the engine itself emits nothing. A shard engine's bus
	// mirrors the coordinator's subscriptions (see shards.go).
	probes probe.Bus
	// Trap, if non-nil, is invoked with every panic message raised via
	// Fatalf; by default Fatalf panics.
	Trap func(format string, args ...any)
}

// New returns an engine whose random streams (NewStream) derive from
// seed. Deliberately *not* crypto-random: reproducibility is the point.
func New(seed int64) *Engine {
	e := &Engine{seed: seed, curLane: LaneGlobal}
	e.ladder.slab = &e.timers
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Probes returns the engine's observation bus. Attach probes before the
// engine runs; emission sites across sim/network/node guard with
// Bus.Active so an empty bus costs nothing.
func (e *Engine) Probes() *probe.Bus { return &e.probes }

// Seed returns the seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// RegisterDispatcher installs d and returns the target id to pass to
// AtMsg, an index into an append-only table: it stays valid for good.
func (e *Engine) RegisterDispatcher(d Dispatcher) int {
	if d == nil {
		panic("sim: RegisterDispatcher(nil)")
	}
	e.dispatchers = append(e.dispatchers, d)
	return len(e.dispatchers) - 1
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently queued; cancelled timers
// do not count.
func (e *Engine) Pending() int { return e.ladder.count - e.ladder.dead }

// LadderStats returns the event queue's counters so far.
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

// TakeKey allocates the key a message scheduled now for instant at would
// receive. It is the cross-shard send path's half of AtMsg: the sender's
// engine takes the key, as a serial run would, and the owning shard's
// engine enqueues it later via ScheduleMsg.
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

// SetExecLane rebinds the current scheduling lane mid-event, for message
// dispatchers: a message is keyed on the sender's lane, but what the
// recipient's handler schedules belongs to the recipient. The engine
// restores LaneGlobal after the event.
func (e *Engine) SetExecLane(lane int32) { e.curLane = lane }

// ExecTag returns the key of the event executing plus the next observation
// number within it: per-shard observation buffers tag entries with it, so
// a merge at the window barrier reproduces the serial emission order.
func (e *Engine) ExecTag() (Key, uint32) {
	s := e.emitSeq
	e.emitSeq++
	return e.execKey, s
}

// At schedules fn to run at virtual time t on the current scheduling lane.
// Scheduling at the current time is allowed (the event runs after all
// previously scheduled events for that time). Scheduling in the past
// returns ErrPastTime.
func (e *Engine) At(t Time, fn func()) (Timer, error) {
	return e.AtLane(e.curLane, t, fn)
}

// AtLane schedules fn to run at virtual time t on an explicit lane: boot
// code places node-owned events on the node's lane, hence its shard; the
// rest use At. A cross-lane event keyed behind the execution frontier is a
// fatal error, as serial and sharded runs could then order it differently.
// fn waits in a slab slot, which a warm slab reuses without allocating.
//
//syncsim:hotpath
func (e *Engine) AtLane(lane int32, t Time, fn func()) (Timer, error) {
	if t < e.now || math.IsNaN(t) || math.IsInf(t, 0) {
		return Timer{}, e.badTime(t)
	}
	k := Key{At: t, Cause: e.now, Lane: lane, Seq: e.nextSeq(lane)}
	if lane != e.curLane && e.processed > 0 && k.Less(e.execKey) {
		e.behindFrontier(k)
	}
	var slot uint32
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
	} else {
		slot = uint32(len(e.timers))
		e.timers = append(e.timers, timerSlot{gen: 1})
	}
	s := &e.timers[slot]
	s.fn = fn
	e.ladder.push(e.now, msgEvent{key: k, msg: Message{Index: slot, Round: int32(s.gen)}, target: timerTarget})
	return Timer{slot: slot, gen: s.gen}, nil
}

// badTime is the error for an instant no event can be scheduled at. It and
// behindFrontier stay out of line: what they format boxes outside AtLane.
//
//go:noinline
func (e *Engine) badTime(t Time) error {
	if t < e.now {
		return fmt.Errorf("%w: t=%v now=%v", ErrPastTime, t, e.now)
	}
	return fmt.Errorf("sim: invalid event time %v", t)
}

// behindFrontier reports a cross-lane event keyed before the executing one.
//
//go:noinline
func (e *Engine) behindFrontier(k Key) {
	e.Fatalf("cross-lane event (lane %d, t=%v) scheduled behind the execution frontier (lane %d, t=%v)",
		k.Lane, k.At, e.curLane, e.execKey.At)
}

// must panics on err: the Must variants are for callers that have already
// validated their arguments.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// MustAtLane is AtLane, panicking on error.
func (e *Engine) MustAtLane(lane int32, t Time, fn func()) Timer { return must(e.AtLane(lane, t, fn)) }

// AtMsg schedules message m for virtual time t, for the dispatcher
// registered under target, keyed to the current lane (the sender's), so a
// broadcast's recipients take the sender's sequence in recipient order. In
// steady state it allocates nothing; a message cannot be cancelled.
func (e *Engine) AtMsg(t Time, target int, m Message) error {
	if t < e.now || math.IsNaN(t) || math.IsInf(t, 0) {
		return e.badTime(t)
	}
	if target < 0 || target >= len(e.dispatchers) {
		return fmt.Errorf("sim: unknown dispatch target %d", target)
	}
	k := Key{At: t, Cause: e.now, Lane: e.curLane, Seq: e.nextSeq(e.curLane)}
	e.ladder.push(e.now, msgEvent{key: k, msg: m, target: int32(target)})
	return nil
}

// MustAtMsg is AtMsg, panicking on error.
func (e *Engine) MustAtMsg(t Time, target int, m Message) { must(0, e.AtMsg(t, target, m)) }

// MustAt is At, panicking on error.
func (e *Engine) MustAt(t Time, fn func()) Timer { return must(e.At(t, fn)) }

// After schedules fn to run d seconds of virtual time from now. Negative
// delays clamp to zero (run after the already-scheduled events for the
// current instant); NaN and infinite delays are errors.
func (e *Engine) After(d Time, fn func()) (Timer, error) {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return Timer{}, fmt.Errorf("sim: invalid delay %v", d)
	}
	return e.At(e.now+max(d, 0), fn)
}

// MustAfter is After, panicking on error.
func (e *Engine) MustAfter(d Time, fn func()) Timer { return must(e.After(d, fn)) }

// Cancel makes a pending timer never fire; its queued entry becomes a
// tombstone. Cancelling a fired, cancelled or zero timer is a no-op: the
// generation no longer matches, even when the slot has been reused since.
//
//syncsim:hotpath
func (e *Engine) Cancel(h Timer) {
	if int(h.slot) < len(e.timers) && e.timers[h.slot].gen == h.gen {
		e.release(h.slot)
		e.ladder.dead++
	}
}

// release retires slot's timer: its generation moves on, so the queued
// entry and every handle to it go stale, and the slot is free for reuse.
//
//syncsim:hotpath
func (e *Engine) release(slot uint32) func() {
	s := &e.timers[slot]
	fn := s.fn
	s.fn = nil
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
	e.free = append(e.free, slot)
	return fn
}

// Step executes the single next event, advancing virtual time to it.
// It returns false when the queue is empty.
//
//syncsim:hotpath
func (e *Engine) Step() bool {
	if e.ladder.peek() == nil {
		return false
	}
	e.exec()
	return true
}

// exec executes the event the ladder's peek just returned: a timer on its
// own lane, a message on the recipient's (the dispatcher rebinds it with
// SetExecLane, as the event orders on the sender's lane).
//
//syncsim:hotpath
func (e *Engine) exec() {
	m := *e.ladder.pop()
	e.processed++
	e.emitSeq = 0
	e.now = m.key.At
	e.execKey, e.curLane = m.key, LaneGlobal
	if m.target == timerTarget {
		e.curLane = m.key.Lane
		e.release(m.msg.Index)()
	} else {
		e.dispatchers[m.target].Dispatch(e.now, m.msg)
	}
	e.curLane = LaneGlobal
}

// runBefore executes every pending event ordering strictly before bound,
// including events those events schedule, in key order. It is the one drain
// loop: Run's, one shard's, and a shard worker's, whose bound is the
// window's safe horizon.
func (e *Engine) runBefore(bound Key) {
	for ev := e.ladder.peek(); ev != nil && ev.key.Less(bound); ev = e.ladder.peek() {
		e.exec()
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
// strictly after until, then advances virtual time to until.
func (e *Engine) Run(until Time) {
	e.runBefore(keyAfter(until))
	e.advanceTo(until)
}

// RunAll executes events until the queue is empty or limit (0: no limit)
// events were processed, and returns how many it processed.
func (e *Engine) RunAll(limit uint64) (count uint64) {
	for (limit == 0 || count < limit) && e.Step() {
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
