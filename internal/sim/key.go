package sim

import "math"

// LaneGlobal is the scheduling lane of events created outside any node's
// execution context: initialization code, samplers, partition markers.
// Global-lane events are the only events that may read cross-node state,
// so the sharded engine executes them single-threaded at window barriers.
const LaneGlobal int32 = -1

// Key totally orders every pending event, messages and timers alike. Every
// shard can compute it locally, yet the serial engine reproduces it
// exactly, so k-shard runs are bit-identical to serial runs.
//
// The order is lexicographic (At, Cause, Lane, Seq):
//
//   - At is the execution instant.
//   - Cause is the instant the event was scheduled. Among events due at
//     the same instant, earlier-scheduled events run first — this keeps
//     the order causal: an event executing at t can only create events
//     with Cause = t, which sort after every same-instant event scheduled
//     before t, so nothing is ever inserted behind the execution frontier.
//   - Lane is the scheduling lane: LaneGlobal for engine-level events,
//     the node id for everything a node schedules (its timers and, one
//     per accepted recipient, its transmissions).
//   - Seq is a per-lane counter. A lane is only ever driven by one
//     goroutine (a node belongs to exactly one shard), so the counter
//     needs no synchronization yet yields the same values in serial and
//     sharded runs: a node's execution sequence is identical in both.
//
// Uniqueness: (Lane, Seq) alone is unique, so the full key is.
type Key struct {
	At    Time
	Cause Time
	Lane  int32
	Seq   uint32
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	if k.Cause != o.Cause {
		return k.Cause < o.Cause
	}
	if k.Lane != o.Lane {
		return k.Lane < o.Lane
	}
	return k.Seq < o.Seq
}

// Compare returns -1, 0, or +1 by the total event order.
func (k Key) Compare(o Key) int {
	var less bool
	switch {
	case k.At != o.At:
		less = k.At < o.At
	case k.Cause != o.Cause:
		less = k.Cause < o.Cause
	case k.Lane != o.Lane:
		less = k.Lane < o.Lane
	case k.Seq != o.Seq:
		less = k.Seq < o.Seq
	default:
		return 0
	}
	if less {
		return -1
	}
	return 1
}

// keyBefore is the exclusive lower sentinel of instant t: every real event
// at t orders at or after it (real causes are finite and > -Inf). Window
// drains use it as a strict upper bound meaning "everything before t".
func keyBefore(t Time) Key {
	return Key{At: t, Cause: math.Inf(-1), Lane: math.MinInt32}
}

// keyAfter is the inclusive upper sentinel of instant t: every real event
// at t orders strictly before it. Window drains use it as a strict upper
// bound meaning "everything at or before t".
func keyAfter(t Time) Key {
	return Key{At: t, Cause: math.Inf(1), Lane: math.MaxInt32, Seq: math.MaxUint32}
}
