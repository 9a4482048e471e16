package clock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogicalTracksHardware(t *testing.T) {
	h := NewConstant(2, 1, Rho(0))
	l := NewLogical(h, 0)
	if got := l.Read(3); got != 5 {
		t.Fatalf("Read(3) = %v, want 5", got)
	}
	if len(l.History()) != 0 || l.Read(3) != h.Read(3) {
		t.Fatalf("initial adjustment = %v", l.Read(3)-h.Read(3))
	}
	if l.Hardware() != h {
		t.Fatal("Hardware() mismatch")
	}
}

func TestLogicalSetAt(t *testing.T) {
	h := NewConstant(0, 1, Rho(0))
	l := NewLogical(h, 0)
	jump := l.SetAt(10, 25) // clock read 10, now reads 25
	if jump != 15 {
		t.Fatalf("jump = %v, want 15", jump)
	}
	if got := l.Read(10); got != 25 {
		t.Fatalf("Read(10) = %v, want 25", got)
	}
	if got := l.Read(12); got != 27 {
		t.Fatalf("Read(12) = %v, want 27", got)
	}
	// The history is the trajectory: before the jump the clock read H.
	if got := l.Read(9); got != 9 {
		t.Fatalf("Read(9) = %v after the jump at 10, want 9", got)
	}
	if len(l.History()) != 1 {
		t.Fatalf("history length = %d", len(l.History()))
	}
	rec := l.History()[0]
	if rec.RealTime != 10 || rec.LocalTime != 10 || rec.Old != 0 || rec.New != 15 {
		t.Fatalf("history record = %+v", rec)
	}
}

// TestLogicalAdvanceAt advances the clock by a delta, SetAt(t, Read(t) +
// delta), twice; each jump is kept, and each stretch reads its own
// adjustment.
func TestLogicalAdvanceAt(t *testing.T) {
	h := NewConstant(0, 2, Rho(1))
	l := NewLogical(h, 0)
	l.SetAt(1, l.Read(1)-0.5)
	if got := l.Read(1); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Read(1) = %v, want 1.5", got)
	}
	l.SetAt(2, l.Read(2)+0.25)
	if got := l.Read(3) - h.Read(3); math.Abs(got+0.25) > 1e-12 {
		t.Fatalf("adjustment = %v, want -0.25", got)
	}
	if got := l.Read(1.5) - h.Read(1.5); math.Abs(got+0.5) > 1e-12 {
		t.Fatalf("adjustment at 1.5 = %v, want -0.5", got)
	}
	if len(l.History()) != 2 {
		t.Fatalf("history length = %d", len(l.History()))
	}
}

func TestLogicalWhenReads(t *testing.T) {
	h := NewConstant(0, 1, Rho(0))
	l := NewLogical(h, 0)
	l.SetAt(5, 100) // adj = 95
	// Clock reads 110 at real time 15.
	if got := l.WhenReads(110); math.Abs(got-15) > 1e-12 {
		t.Fatalf("WhenReads(110) = %v, want 15", got)
	}
}

// Property: after SetAt(t, v), Read(t) == v, for drifting clocks too.
func TestSetAtProperty(t *testing.T) {
	rho := Rho(0.02)
	f := func(seed int64, rawT, rawV uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHardware(0, rho, RandomWalk{Rho: rho, MinDur: 0.1, MaxDur: 1}, rng)
		l := NewLogical(h, 0)
		tt := float64(rawT) / 128
		v := float64(rawV) / 8
		l.SetAt(tt, v)
		if math.Abs(l.Read(tt)-v) > 1e-9 {
			return false
		}
		// WhenReads inverts correctly for future values.
		target := v + 1
		when := l.WhenReads(target)
		return math.Abs(l.Read(when)-target) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReserveSizesTheHistoryOnce: the first SetAt allocates the reserved
// room, which later ones fill without growing it; a clock never set
// allocates none.
func TestReserveSizesTheHistoryOnce(t *testing.T) {
	idle := NewLogical(NewConstant(0, 1, Rho(0)), 0)
	idle.Reserve(8)
	idle.Read(3)
	if idle.History() != nil {
		t.Fatal("a clock never set allocated a history")
	}
	for _, sigma := range []float64{0, 0.1} {
		l := NewLogical(NewConstant(0, 1, Rho(0)), sigma)
		l.Reserve(8)
		l.SetAt(1, 2)
		first := &l.History()[0]
		for i := 2; i <= 8; i++ {
			l.SetAt(float64(i), float64(i)+0.5)
		}
		if h := l.History(); len(h) != 8 || cap(h) != 8 || &h[0] != first {
			t.Fatalf("sigma %v: history len %d cap %d, moved %v", sigma, len(h), cap(h), &h[0] != first)
		}
	}
}
