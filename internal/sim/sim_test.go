package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := New(1)
	var got []int
	e.MustAt(3, func() { got = append(got, 3) })
	e.MustAt(1, func() { got = append(got, 1) })
	e.MustAt(2, func() { got = append(got, 2) })
	e.RunAll(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineFIFOForTies(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustAt(5, func() { got = append(got, i) })
	}
	e.RunAll(0)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineRejectsPast(t *testing.T) {
	e := New(1)
	e.MustAt(10, func() {})
	e.Step()
	if _, err := e.At(5, func() {}); err == nil {
		t.Fatal("expected error scheduling in the past")
	}
	if _, err := e.At(math.NaN(), func() {}); err == nil {
		t.Fatal("expected error scheduling at NaN")
	}
	if _, err := e.At(math.Inf(1), func() {}); err == nil {
		t.Fatal("expected error scheduling at +Inf")
	}
}

func TestEngineSameTimeAllowed(t *testing.T) {
	e := New(1)
	ran := false
	e.MustAt(10, func() {
		// Scheduling at the current instant must be legal and run later.
		e.MustAt(e.Now(), func() { ran = true })
	})
	e.RunAll(0)
	if !ran {
		t.Fatal("event scheduled at current time did not run")
	}
}

func TestEngineCancel(t *testing.T) {
	e := New(1)
	ran := false
	h := e.MustAt(1, func() { ran = true })
	e.Cancel(h)
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after the only timer was canceled", e.Pending())
	}
	if e.Step() || ran {
		t.Fatal("canceled event ran")
	}
	if e.Processed() != 0 || e.LadderStats().Tombstones != 1 {
		t.Fatalf("a tombstone was processed: Processed %d, stats %+v", e.Processed(), e.LadderStats())
	}
	// Double cancel and zero-handle cancel are no-ops, and so is a stale
	// handle whose slot a later timer reuses.
	e.Cancel(h)
	e.Cancel(Timer{})
	ran2 := false
	h2 := e.MustAt(2, func() { ran2 = true })
	if h2.slot != h.slot {
		t.Fatalf("slot %d not reused (got %d)", h.slot, h2.slot)
	}
	e.Cancel(h)
	e.RunAll(0)
	if !ran2 {
		t.Fatal("canceling a stale handle canceled the timer reusing its slot")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := New(1)
	var got []int
	var evs []Timer
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.MustAt(Time(i), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		e.Cancel(evs[i])
	}
	e.RunAll(0)
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("canceled event %d ran", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("got %d events, want 13", len(got))
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New(1)
	var got []Time
	for _, tt := range []Time{1, 2, 3, 4, 5} {
		tt := tt
		e.MustAt(tt, func() { got = append(got, tt) })
	}
	e.Run(3)
	if len(got) != 3 {
		t.Fatalf("processed %d events by t=3, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
	e.Run(10)
	if len(got) != 5 {
		t.Fatalf("processed %d events total, want 5", len(got))
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want horizon 10", e.Now())
	}
}

func TestEngineAfter(t *testing.T) {
	e := New(1)
	var at Time
	e.MustAt(5, func() {
		e.MustAfter(2.5, func() { at = e.Now() })
	})
	e.RunAll(0)
	if at != 7.5 {
		t.Fatalf("After fired at %v, want 7.5", at)
	}
	// Negative delays clamp to "now".
	fired := false
	e.MustAfter(-1, func() { fired = true })
	e.RunAll(0)
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := New(seed)
		if e.Seed() != seed {
			t.Fatalf("Seed() = %d, want %d", e.Seed(), seed)
		}
		rng := rand.New(NewStream(seed, 0, NodeStream))
		var got []Time
		var schedule func()
		n := 0
		schedule = func() {
			if n >= 100 {
				return
			}
			n++
			d := rng.Float64()
			e.MustAfter(d, func() {
				got = append(got, e.Now())
				schedule()
			})
		}
		schedule()
		e.RunAll(0)
		return got
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestEngineProcessedAndPending(t *testing.T) {
	e := New(1)
	for i := 0; i < 5; i++ {
		e.MustAt(Time(i), func() {})
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", e.Pending())
	}
	e.RunAll(2)
	if e.Processed() != 2 {
		t.Fatalf("Processed() = %d, want 2", e.Processed())
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
}

func TestEngineFatalfTrap(t *testing.T) {
	e := New(1)
	var captured string
	e.Trap = func(format string, args ...any) { captured = format }
	e.Fatalf("boom %d", 7)
	if captured != "boom %d" {
		t.Fatalf("Trap not invoked, captured=%q", captured)
	}
	e.Trap = nil
	defer func() {
		if recover() == nil {
			t.Fatal("Fatalf without Trap did not panic")
		}
	}()
	e.Fatalf("boom")
}

// Property: for any batch of event times, execution order is the sorted
// order of times (stable for equal times).
func TestEngineHeapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New(7)
		times := make([]Time, len(raw))
		for i, r := range raw {
			times[i] = Time(r) / 16
		}
		var got []Time
		for _, tt := range times {
			tt := tt
			e.MustAt(tt, func() { got = append(got, tt) })
		}
		e.RunAll(0)
		want := append([]Time(nil), times...)
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset removes exactly that subset.
func TestEngineCancelProperty(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		e := New(3)
		type item struct {
			ev       Timer
			canceled bool
		}
		items := make([]item, len(raw))
		ran := make(map[int]bool)
		for i, r := range raw {
			i := i
			items[i].ev = e.MustAt(Time(r), func() { ran[i] = true })
		}
		for i := range items {
			if i < len(mask) && mask[i] {
				e.Cancel(items[i].ev)
				items[i].canceled = true
			}
		}
		e.RunAll(0)
		for i := range items {
			if items[i].canceled == ran[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTimerRearmZeroAllocs: a protocol's round timer is armed, cancelled
// and re-armed at every resync. Once the slab, its free list and the
// ladder's arrays are warm, that cycle — and the firing that ends it —
// allocates nothing: the handle is a value and the tombstone a ladder entry.
func TestTimerRearmZeroAllocs(t *testing.T) {
	e := New(1)
	fired := 0
	fn := func() { fired++ }
	cycle := func() {
		e.Cancel(e.MustAfter(1e-3, fn))
		e.MustAfter(2e-3, fn)
		e.RunAll(0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady-state At -> Cancel -> At -> fire cycle allocates %.1f objects", allocs)
	}
	if fired != 102 || e.LadderStats().Tombstones != 102 {
		t.Fatalf("%d timers fired, %d tombstones discarded; want 102 of each", fired, e.LadderStats().Tombstones)
	}
}
