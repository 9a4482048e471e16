package clock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLogicalValidatesSigma(t *testing.T) {
	hw := NewConstant(0, 1, Rho(0))
	for _, sigma := range []float64{1, 2, math.NaN(), math.Inf(1)} {
		sigma := sigma
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("sigma=%v accepted", sigma)
				}
			}()
			NewLogical(hw, sigma)
		}()
	}
	// A rate of 0 or less jumps.
	for _, sigma := range []float64{0, -0.5} {
		l := NewLogical(hw, sigma)
		if l.SetAt(1, 3); l.Read(1) != 3 {
			t.Fatalf("sigma=%v: Read(1) = %v after SetAt(1, 3), want a jump to 3", sigma, l.Read(1))
		}
	}
	l := NewLogical(hw, 0.25)
	if l.Hardware() != hw {
		t.Fatal("accessors wrong")
	}
	if l.SetAt(1, 3); l.Read(1) != 1 || l.Read(2) != 2.25 {
		t.Fatalf("sigma=0.25: Read(1), Read(2) = %v, %v after SetAt(1, 3), want a slew from 1 to 2.25", l.Read(1), l.Read(2))
	}
}

func TestSlewReachesTargetGradually(t *testing.T) {
	hw := NewConstant(0, 1, Rho(0))
	l := NewLogical(hw, 0.1) // 0.1 logical units per local unit
	if got := l.Read(5); got != 5 {
		t.Fatalf("pre-adjust Read = %v", got)
	}
	// At t=10 request +1: slew takes 10 local units.
	delta := l.SetAt(10, 11)
	if delta != 1 {
		t.Fatalf("delta = %v", delta)
	}
	if got := l.Read(10); math.Abs(got-10) > 1e-12 {
		t.Fatalf("Read at slew start = %v, want 10 (no jump)", got)
	}
	if got := l.Read(15); math.Abs(got-15.5) > 1e-12 {
		t.Fatalf("Read mid-slew = %v, want 15.5", got)
	}
	if got := l.Read(15.5) - l.Read(15); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("rate at 15 = %v, want 1.1 (still slewing)", got/0.5)
	}
	if got := l.Read(20); math.Abs(got-21) > 1e-12 {
		t.Fatalf("Read at slew end = %v, want 21", got)
	}
	if got := l.Read(20.5) - l.Read(20.001); math.Abs(got-0.499) > 1e-12 {
		t.Fatalf("rate after 20.001 = %v, want 1 (slew done)", got/0.499)
	}
	if got := l.Read(25); math.Abs(got-26) > 1e-12 {
		t.Fatalf("Read after slew = %v, want 26", got)
	}
	if h := l.History(); len(h) != 1 || h[0].Old != 0 || h[0].New != 1 {
		t.Fatalf("history = %+v, want one slew from 0 to the target 1", h)
	}
}

func TestSlewNegativeAdjustmentStaysMonotone(t *testing.T) {
	hw := NewConstant(0, 1, Rho(0))
	l := NewLogical(hw, 0.5)
	l.SetAt(10, 8) // request -2: slew over 4 local units at rate -0.5
	prev := math.Inf(-1)
	for tt := 9.0; tt <= 16; tt += 0.125 {
		got := l.Read(tt)
		if got <= prev {
			t.Fatalf("clock not strictly increasing at t=%v: %v <= %v", tt, got, prev)
		}
		prev = got
	}
	if got := l.Read(14); math.Abs(got-12) > 1e-12 {
		t.Fatalf("Read(14) = %v, want 12 (slew done)", got)
	}
}

func TestSlewTruncationMidSlew(t *testing.T) {
	hw := NewConstant(0, 1, Rho(0))
	l := NewLogical(hw, 0.1)
	l.SetAt(10, 11) // +1 over 10 units
	// Halfway (adj = +0.5), re-target to current trajectory -0.5:
	// at t=15 clock reads 15.5; request it to read 15.0.
	l.SetAt(15, 15)
	if got := l.Read(15); math.Abs(got-15.5) > 1e-12 {
		t.Fatalf("Read at retarget = %v, want 15.5 (continuous)", got)
	}
	// New slew: adj from +0.5 to 0.0 over 5 units.
	if got := l.Read(20); math.Abs(got-20) > 1e-12 {
		t.Fatalf("Read(20) = %v, want 20", got)
	}
	if got := l.Read(30); math.Abs(got-30) > 1e-12 {
		t.Fatalf("Read(30) = %v, want 30", got)
	}
	// The cut-short first slew is still the clock's past.
	if got := l.Read(12); math.Abs(got-12.2) > 1e-12 {
		t.Fatalf("Read(12) = %v after the retarget at 15, want 12.2", got)
	}
}

func TestSlewWhenReads(t *testing.T) {
	hw := NewConstant(0, 1, Rho(0))
	l := NewLogical(hw, 0.1)
	l.SetAt(10, 11)
	// During the slew C(t) = t + 0.1*(t-10) for t in [10,20]:
	// C = 15.5 at t = 15; after, C = t+1.
	cases := []struct{ value, want float64 }{
		{5, 5},     // before any adjustment
		{15.5, 15}, // mid-slew
		{21, 20},   // slew end
		{26, 25},   // after slew
	}
	for _, c := range cases {
		if got := l.WhenReads(c.value); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("WhenReads(%v) = %v, want %v", c.value, got, c.want)
		}
	}
}

func TestSlewWhenReadsWithDriftingHardware(t *testing.T) {
	hw := NewConstant(0, 2, Rho(1)) // rate-2 clock
	l := NewLogical(hw, 0.2)
	l.SetAt(1, 3) // at t=1 H=2, request C=3: +1 over 5 local = 2.5 real
	for _, value := range []float64{1.5, 2.5, 4.0, 7.0, 20.0} {
		tt := l.WhenReads(value)
		if got := l.Read(tt); math.Abs(got-value) > 1e-9 {
			t.Fatalf("Read(WhenReads(%v)) = %v", value, got)
		}
	}
}

// Property: slewed clocks are strictly monotone and continuous under any
// sequence of adjustment requests.
func TestSlewMonotoneProperty(t *testing.T) {
	rho := Rho(0.01)
	f := func(seed int64, raws []int8) bool {
		if len(raws) > 12 {
			raws = raws[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		hw := NewHardware(0, rho, RandomWalk{Rho: rho, MinDur: 0.1, MaxDur: 1}, rng)
		l := NewLogical(hw, 0.3)
		tt := 0.5
		for _, r := range raws {
			target := l.Read(tt) + float64(r)/50
			l.SetAt(tt, target)
			tt += 0.4
		}
		prev := math.Inf(-1)
		for x := 0.0; x < tt+3; x += 0.05 {
			got := l.Read(x)
			if got <= prev {
				return false
			}
			prev = got
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(59))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: WhenReads is a right inverse of Read for slewed clocks, across
// random adjustment sequences.
func TestSlewWhenReadsProperty(t *testing.T) {
	rho := Rho(0.01)
	f := func(seed int64, raws []int8, probe uint16) bool {
		if len(raws) > 8 {
			raws = raws[:8]
		}
		rng := rand.New(rand.NewSource(seed))
		hw := NewHardware(1, rho, RandomWalk{Rho: rho, MinDur: 0.1, MaxDur: 1}, rng)
		l := NewLogical(hw, 0.25)
		tt := 0.3
		for _, r := range raws {
			l.SetAt(tt, l.Read(tt)+float64(r)/60)
			tt += 0.5
		}
		value := l.Read(tt) + float64(probe)/2048
		when := l.WhenReads(value)
		return math.Abs(l.Read(when)-value) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSlewZeroDeltaIsNoop(t *testing.T) {
	hw := NewConstant(0, 1, Rho(0))
	l := NewLogical(hw, 0.1)
	if delta := l.SetAt(5, 5); delta != 0 {
		t.Fatalf("delta = %v", delta)
	}
	if got := l.Read(7); math.Abs(got-7) > 1e-12 {
		t.Fatalf("Read(7) = %v", got)
	}
	if got := l.Read(6) - l.Read(5.5); got != 0.5 {
		t.Fatalf("rate at 5.5 = %v, want 1 (no slew in progress)", got/0.5)
	}
}
