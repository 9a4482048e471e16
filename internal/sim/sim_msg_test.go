package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// recorder is a test dispatcher logging (now, msg) pairs.
type recorder struct {
	at   []Time
	msgs []Message
}

func (r *recorder) Dispatch(now Time, m Message) {
	r.at = append(r.at, now)
	r.msgs = append(r.msgs, m)
}

func TestAtMsgDispatchesToTarget(t *testing.T) {
	e := New(1)
	a, b := &recorder{}, &recorder{}
	ta := e.RegisterDispatcher(a)
	tb := e.RegisterDispatcher(b)
	e.MustAtMsg(2, ta, Message{From: 7, Kind: 1, Index: 11})
	e.MustAtMsg(1, tb, Message{From: 8, Kind: 2, Index: 22})
	e.RunAll(0)
	if len(a.msgs) != 1 || a.msgs[0] != (Message{From: 7, Kind: 1, Index: 11}) || a.at[0] != 2 {
		t.Fatalf("dispatcher a got %v at %v", a.msgs, a.at)
	}
	if len(b.msgs) != 1 || b.msgs[0].From != 8 {
		t.Fatalf("dispatcher b got %v", b.msgs)
	}
}

func TestAtMsgErrors(t *testing.T) {
	e := New(1)
	target := e.RegisterDispatcher(&recorder{})
	e.MustAt(5, func() {})
	e.Step()
	if err := e.AtMsg(1, target, Message{}); err == nil {
		t.Fatal("expected past-time error")
	}
	if err := e.AtMsg(10, 99, Message{}); err == nil {
		t.Fatal("expected unknown-target error")
	}
	if err := e.AtMsg(10, -1, Message{}); err == nil {
		t.Fatal("expected negative-target error")
	}
}

func TestRegisterNilDispatcherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterDispatcher(nil) did not panic")
		}
	}()
	New(1).RegisterDispatcher(nil)
}

// Message events interleave with timers in strict (time, seq) order, and a
// canceled timer between them leaves the rest in place.
func TestMsgAndTimerInterleaving(t *testing.T) {
	e := New(1)
	var order []int
	target := e.RegisterDispatcher(&funcDispatcher{func(_ Time, m Message) {
		order = append(order, int(m.Index))
	}})
	e.MustAt(1, func() { order = append(order, -1) })
	e.MustAtMsg(1, target, Message{Index: 100})
	dead := e.MustAt(1, func() { order = append(order, -3) })
	e.MustAt(1, func() { order = append(order, -2) })
	e.MustAtMsg(1, target, Message{Index: 101})
	e.Cancel(dead)
	e.RunAll(0)
	want := []int{-1, 100, -2, 101}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

type funcDispatcher struct {
	fn func(Time, Message)
}

func (d *funcDispatcher) Dispatch(now Time, m Message) { d.fn(now, m) }

// Steady-state message events must reuse retained ladder bucket
// capacity (the old engine's free list is gone — events are values now):
// after a warm-up round, scheduling another batch allocates nothing.
func TestMsgEventPoolReuse(t *testing.T) {
	e := New(1)
	target := e.RegisterDispatcher(&recorder{})
	for i := 0; i < 100; i++ {
		e.MustAtMsg(Time(i), target, Message{Index: uint32(i)})
	}
	e.RunAll(0)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			e.MustAtMsg(e.Now()+Time(i), target, Message{Index: uint32(i)})
		}
		e.RunAll(0)
	})
	if allocs > 1 { // the recorder's append may occasionally grow
		t.Fatalf("steady-state AtMsg allocated %.1f objects per round", allocs)
	}
}

// A dispatcher that schedules from inside Dispatch inserts behind the
// ladder's drain point; the engine must order the follow-up correctly.
func TestDispatchReschedulesFromPool(t *testing.T) {
	e := New(1)
	var seen []uint32
	var target int
	target = e.RegisterDispatcher(&funcDispatcher{func(now Time, m Message) {
		seen = append(seen, m.Index)
		if m.Index < 5 {
			e.MustAtMsg(now+1, target, Message{Index: m.Index + 1})
		}
	}})
	e.MustAtMsg(0, target, Message{Index: 0})
	e.RunAll(0)
	if len(seen) != 6 || seen[5] != 5 {
		t.Fatalf("chain = %v", seen)
	}
}

// --- Per-node random streams ---

// TestNodeStreamIsCallOrderInvariant: a node's stream depends on (seed,
// id) alone, so streams built in either order, or after draws on another
// id's stream, yield the same values.
func TestNodeStreamIsCallOrderInvariant(t *testing.T) {
	draw := func(id int) float64 { return rand.New(NewStream(42, id, NodeStream)).Float64() }

	a1 := draw(0)
	b1 := draw(1)
	// Ask in the opposite order; the streams must be identical anyway.
	b2 := draw(1)
	a2 := draw(0)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("streams depend on acquisition order: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
	// Draws on another id's stream must not disturb this one.
	other := rand.New(NewStream(42, 1, NodeStream))
	other.Float64()
	other.Float64()
	if got := draw(0); got != a1 {
		t.Fatalf("draws on stream 1 disturbed stream 0: %v vs %v", got, a1)
	}
}

// --- Edge cases of the engine loop ---

// Cancel-then-step: cancelling the head of the queue between steps must
// not stall or misorder the remaining events.
func TestCancelHeadThenStep(t *testing.T) {
	e := New(1)
	var got []int
	head := e.MustAt(1, func() { got = append(got, 1) })
	e.MustAt(2, func() { got = append(got, 2) })
	e.MustAt(3, func() { got = append(got, 3) })
	e.Cancel(head)
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if e.Now() != 2 || len(got) != 1 || got[0] != 2 {
		t.Fatalf("after step: now=%v got=%v", e.Now(), got)
	}
	e.Step()
	if len(got) != 2 || got[1] != 3 {
		t.Fatalf("got = %v", got)
	}
	if e.Step() {
		t.Fatal("Step returned true on an empty queue")
	}
}

// Run(until) with an event exactly at the horizon: the event fires (the
// horizon is inclusive) and Now lands exactly on the horizon, not past it.
func TestRunUntilEventExactlyAtHorizon(t *testing.T) {
	e := New(1)
	var fired []Time
	e.MustAt(5, func() { fired = append(fired, e.Now()) })
	e.MustAt(5.0000000001, func() { fired = append(fired, e.Now()) })
	e.Run(5)
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("fired = %v, want exactly the t=5 event", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", e.Now())
	}
	// An event scheduled from the boundary event at the boundary instant
	// still belongs to the horizon.
	e2 := New(1)
	ran := false
	e2.MustAt(5, func() { e2.MustAt(5, func() { ran = true }) })
	e2.Run(5)
	if !ran {
		t.Fatal("event chained at the horizon instant did not run within Run(5)")
	}
}

// RunAll(limit) with events that schedule further events: the limit
// counts executed events, including newly spawned ones, and the remainder
// stays queued.
func TestRunAllLimitWithSelfScheduling(t *testing.T) {
	e := New(1)
	var count int
	var loop func()
	loop = func() {
		count++
		e.MustAfter(1, loop) // every event schedules its successor
	}
	e.MustAfter(0, loop)
	if n := e.RunAll(7); n != 7 {
		t.Fatalf("RunAll(7) processed %d", n)
	}
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the next self-scheduled event", e.Pending())
	}
	// Resuming picks up where the limit stopped.
	if n := e.RunAll(2); n != 2 || count != 9 {
		t.Fatalf("resume processed %d, count %d", n, count)
	}
}
