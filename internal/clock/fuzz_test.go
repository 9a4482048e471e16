package clock

import (
	"math"
	"math/rand"
	"testing"
)

// gapProbe builds the slewing clock of the seed-9925 gap: a clock whose
// time scale is drawn up to 2^33 and whose hardware drifts, slewed six
// times. The reference's WhenReads answered 142 979.2 s for the value
// 62 438.79215227122, where the clock reads 129 973.1: the value falls
// between two adjacent pieces' readings, which are computed in different
// float orders and, past 2^13 s, lie more than 1e-12 apart.
func gapProbe(mk func(hw *Hardware, sigma float64) refClock) refClock {
	rng := rand.New(rand.NewSource(9925))
	scale := math.Ldexp(1, rng.Intn(34))
	sigma := 0.05 + 0.5*rng.Float64()
	hw := NewHardware(rng.Float64()*scale, 0.01, RandomWalk{Rho: 0.01, MinDur: 0.1 * scale, MaxDur: scale}, rng)
	l := mk(hw, sigma)
	now := 0.0
	for i := 0; i < 6; i++ {
		now += (0.05 + rng.Float64()) * scale
		l.SetAt(now, l.Read(now)+(rng.Float64()-0.5)*0.3*scale)
	}
	return l
}

// TestSlewWhenReadsAcrossAFloatGap: a value between two pieces' readings
// is held by the first stretch or piece whose upper reading reaches it,
// and answers that stretch's start.
func TestSlewWhenReadsAcrossAFloatGap(t *testing.T) {
	const value = 62438.79215227122
	ref := gapProbe(func(hw *Hardware, sigma float64) refClock { return newRefSlewed(hw, sigma) })
	if got := ref.Read(ref.WhenReads(value)); math.Abs(got-value) < 1 {
		t.Fatalf("the reference now answers the gap value right (reads %v): the probe no longer probes a gap", got)
	}
	l := gapProbe(func(hw *Hardware, sigma float64) refClock { return NewLogical(hw, sigma) })
	when := l.WhenReads(value)
	if math.Abs(when-69850.86) > 0.01 {
		t.Fatalf("WhenReads(%v) = %v, want 69850.86", value, when)
	}
	if got := l.Read(when); math.Abs(got-value) > 1e-9*value {
		t.Fatalf("the clock reads %v at WhenReads(%v) = %v", got, value, when)
	}
	if got := l.WhenReads(-1); got != 0 {
		t.Fatalf("WhenReads(-1) = %v, want 0: the clock reads more than -1 from the start", got)
	}
}

// readsValue reports whether x is where l reads value: the clock reads it
// there to within 1e-9 relative, or reads more from real time 0 on. C is
// strictly increasing, so that instant is the earliest that reads at
// least value.
func readsValue(l refClock, x, value float64) bool {
	c := l.Read(x)
	return math.Abs(c-value) < 1e-9*math.Max(1, math.Abs(value)) || x == 0 && c >= value
}

// FuzzLogicalMatchesReference holds Logical to the jump and slewing clocks
// it replaced (reference_test.go). A seed draws a time scale 2^0..2^33 and
// drifting hardware as gapProbe does; mode picks a jump clock, a slew rate
// drawn as gapProbe draws it, or one in (0, 1) from mode itself. Each op
// byte is a SetAt, a Read or a WhenReads at a non-decreasing instant.
// SetAt and Read must be bit-equal to the reference's. So must WhenReads,
// except where the reference answers an instant at which the clock does
// not read the value; there Logical's answer must read it. At the end,
// the histories are equal, every earlier reading of Logical's that no
// later SetAt covers reads back bit for bit at its instant, and WhenReads
// answers, under the same rule, value (unless it lies more than the time
// scale past the last reading) and every float between a slewing piece's
// reading at its end and the next stretch's reading at its start.
func FuzzLogicalMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, mode uint16, ops []byte, value float64) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		rng := rand.New(rand.NewSource(seed))
		scale := math.Ldexp(1, rng.Intn(34))
		sigma := 0.05 + 0.5*rng.Float64()
		hw := NewHardware(rng.Float64()*scale, 0.01, RandomWalk{Rho: 0.01, MinDur: 0.1 * scale, MaxDur: scale}, rng)
		var ref refClock
		switch mode % 3 {
		case 0:
			sigma = 0
			ref = newRefJump(hw)
		case 2:
			sigma = (float64(mode/3) + 1) / 21847
			fallthrough
		default:
			ref = newRefSlewed(hw, sigma)
		}
		l := NewLogical(hw, sigma)

		whenReads := func(v float64) {
			t.Helper()
			got, want := l.WhenReads(v), ref.WhenReads(v)
			if got == want {
				return
			}
			if readsValue(ref, want, v) || !readsValue(l, got, v) {
				t.Fatalf("sigma %v: WhenReads(%v) = %v (reads %v), the reference's %v (reads %v)",
					sigma, v, got, l.Read(got), want, ref.Read(want))
			}
		}
		type reading struct{ t, h, c float64 }
		var past []reading
		now := 0.0
		for _, op := range ops {
			step := float64(op>>2) / 63
			switch op % 3 {
			case 0:
				if op>>2 != 63 { // 63: a second SetAt at the same instant
					now += (0.05 + rng.Float64()) * scale
				}
				r := l.Read(now)
				if want := ref.Read(now); r != want {
					t.Fatalf("sigma %v: Read(%v) = %v, the reference's %v", sigma, now, r, want)
				}
				v := r + (rng.Float64()-0.5)*0.3*scale
				if got, want := l.SetAt(now, v), ref.SetAt(now, v); got != want {
					t.Fatalf("sigma %v: SetAt(%v, %v) = %v, the reference's %v", sigma, now, v, got, want)
				}
				h := hw.Read(now)
				kept := past[:0]
				for _, p := range past {
					if p.h < h {
						kept = append(kept, p)
					}
				}
				past = kept
			case 1:
				now += step * scale
				c := l.Read(now)
				if want := ref.Read(now); c != want {
					t.Fatalf("sigma %v: Read(%v) = %v, the reference's %v", sigma, now, c, want)
				}
				past = append(past, reading{now, hw.Read(now), c})
				if sigma > 0 { // the slewing reference reads its past too
					if at := now * step; l.Read(at) != ref.Read(at) {
						t.Fatalf("sigma %v: Read(%v) = %v, the reference's %v", sigma, at, l.Read(at), ref.Read(at))
					}
				}
			default:
				whenReads(l.Read(now) + (step-0.3)*scale)
			}
		}
		if got, want := l.History(), ref.History(); len(got) != len(want) {
			t.Fatalf("%d adjustments, the reference %d", len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("adjustment %d = %+v, the reference's %+v", i, got[i], want[i])
				}
			}
		}
		for _, p := range past {
			if c := l.Read(p.t); c != p.c {
				t.Fatalf("sigma %v: Read(%v) = %v now, %v then", sigma, p.t, c, p.c)
			}
		}
		// Inverting a finite value far past now materializes hardware
		// segments up to it (+Inf has TestInvertInfinityReturnsAtOnce).
		if value <= l.Read(now)+scale {
			whenReads(value)
		}
		if s, ok := ref.(*refSlewed); ok {
			for _, seg := range s.segs {
				lo := seg.endH + seg.startAdj + seg.slope*(seg.endH-seg.startH)
				hi := seg.endH + seg.final()
				if lo > hi {
					lo, hi = hi, lo
				}
				for v, k := lo, 0; v <= hi && k < 8; v, k = math.Nextafter(v, math.Inf(1)), k+1 {
					whenReads(v)
				}
			}
		}
	})
}
