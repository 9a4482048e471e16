package clock

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRhoRates(t *testing.T) {
	r := Rho(0.001)
	if got := r.MaxRate(); got != 1.001 {
		t.Fatalf("MaxRate = %v, want 1.001", got)
	}
	if got := r.MinRate(); math.Abs(got-1/1.001) > 1e-15 {
		t.Fatalf("MinRate = %v, want %v", got, 1/1.001)
	}
	if got := r.RelativeDrift(); math.Abs(got-(1.001-1/1.001)) > 1e-15 {
		t.Fatalf("RelativeDrift = %v", got)
	}
}

func TestConstantClockRead(t *testing.T) {
	h := NewConstant(5, 1.5, Rho(0.5))
	cases := []struct{ t, want float64 }{
		{0, 5}, {1, 6.5}, {2, 8}, {10, 20},
	}
	for _, c := range cases {
		if got := h.Read(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Read(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestConstantClockInvert(t *testing.T) {
	h := NewConstant(5, 2, Rho(1))
	if got := h.Invert(9); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Invert(9) = %v, want 2", got)
	}
	// Local values at or before the offset map to time 0.
	if got := h.Invert(5); got != 0 {
		t.Fatalf("Invert(5) = %v, want 0", got)
	}
	if got := h.Invert(-3); got != 0 {
		t.Fatalf("Invert(-3) = %v, want 0", got)
	}
}

func TestReadRejectsNegativeTime(t *testing.T) {
	h := NewConstant(0, 1, Rho(0))
	defer func() {
		if recover() == nil {
			t.Fatal("Read(-1) did not panic")
		}
	}()
	h.Read(-1)
}

// Scripted replays an explicit list of segments, then holds the final rate
// forever. It is the "adversary writes down the clock function" model used
// in lower-bound style tests.
type Scripted struct {
	Durs  []float64
	Rates []float64

	next int
}

var _ Generator = (*Scripted)(nil)

// NextSegment implements Generator.
func (s *Scripted) NextSegment(*rand.Rand) (dur, rate float64) {
	if s.next >= len(s.Durs) || s.next >= len(s.Rates) {
		last := 1.0
		if len(s.Rates) > 0 {
			last = s.Rates[len(s.Rates)-1]
		}
		return 1 << 20, last
	}
	i := s.next
	s.next++
	return s.Durs[i], s.Rates[i]
}

func TestScriptedSegments(t *testing.T) {
	gen := &Scripted{
		Durs:  []float64{1, 2, 1},
		Rates: []float64{1.0, 0.5, 2.0},
	}
	h := NewHardware(0, Rho(1), gen, nil)
	// H: [0,1)@1 -> 1; [1,3)@0.5 -> 2; [3,4)@2 -> 4; then rate 2 forever.
	cases := []struct{ t, want float64 }{
		{0, 0}, {0.5, 0.5}, {1, 1}, {2, 1.5}, {3, 2}, {3.5, 3}, {4, 4}, {5, 6},
	}
	for _, c := range cases {
		if got := h.Read(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Read(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if bp := h.Breakpoints(); len(bp) < 5 || bp[0] != 0 || bp[1] != 1 || bp[2] != 3 || bp[3] != 4 {
		t.Fatalf("Breakpoints = %v, want 0, 1, 3, 4, ...", bp)
	}
	// Inversion across the non-uniform region.
	for _, local := range []float64{0.25, 1.0, 1.75, 2.5, 3.5, 5.5} {
		tt := h.Invert(local)
		if got := h.Read(tt); math.Abs(got-local) > 1e-9 {
			t.Fatalf("Read(Invert(%v)) = %v", local, got)
		}
	}
}

func TestGeneratorRateValidation(t *testing.T) {
	gen := &Scripted{Durs: []float64{1}, Rates: []float64{3}} // outside rho=0.1
	h := NewHardware(0, Rho(0.1), gen, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-envelope rate did not panic")
		}
	}()
	h.Read(10)
}

func TestGeneratorDurationValidation(t *testing.T) {
	gen := &Scripted{Durs: []float64{-1}, Rates: []float64{1}}
	h := NewHardware(0, Rho(0.1), gen, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive duration did not panic")
		}
	}()
	h.Read(10)
}

func TestRandomWalkStaysInEnvelope(t *testing.T) {
	rho := Rho(0.01)
	rng := rand.New(rand.NewSource(5))
	h := NewHardware(0, rho, RandomWalk{Rho: rho, MinDur: 0.1, MaxDur: 2}, rng)
	prevT, prevH := 0.0, h.Read(0)
	for tt := 0.25; tt < 500; tt += 0.25 {
		cur := h.Read(tt)
		rate := (cur - prevH) / (tt - prevT)
		if rate < rho.MinRate()-1e-9 || rate > rho.MaxRate()+1e-9 {
			t.Fatalf("window rate %v outside envelope at t=%v", rate, tt)
		}
		prevT, prevH = tt, cur
	}
	if len(h.Breakpoints()) < 101 {
		t.Fatalf("expected many segments, got %d", len(h.Breakpoints())-1)
	}
}

// Property: Read is monotone non-decreasing (strictly increasing for
// positive rates) and respects the global envelope between any two times.
func TestReadMonotoneAndEnvelopeProperty(t *testing.T) {
	rho := Rho(0.05)
	f := func(seed int64, rawA, rawB uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHardware(3, rho, RandomWalk{Rho: rho, MinDur: 0.05, MaxDur: 1.5}, rng)
		a, b := float64(rawA)/64, float64(rawB)/64
		if a > b {
			a, b = b, a
		}
		ha, hb := h.Read(a), h.Read(b)
		if hb < ha {
			return false
		}
		dt := b - a
		dh := hb - ha
		return dh >= dt*rho.MinRate()-1e-9 && dh <= dt*rho.MaxRate()+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Invert is a right inverse of Read wherever defined.
func TestInvertRoundTripProperty(t *testing.T) {
	rho := Rho(0.1)
	f := func(seed int64, raw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHardware(1, rho, RandomWalk{Rho: rho, MinDur: 0.05, MaxDur: 1}, rng)
		local := 1 + float64(raw)/32
		tt := h.Invert(local)
		return math.Abs(h.Read(tt)-local) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// searchSegment is the segment lookup Read and Invert did on every call
// before they tried a guessed segment first: the reference for
// TestReadBackwardsAfterForwards.
func searchSegment(xs []float64, x float64) int {
	i := sort.SearchFloat64s(xs, x)
	if i == len(xs) || xs[i] > x {
		i--
	}
	if i == len(xs)-1 {
		i--
	}
	return i
}

// TestReadBackwardsAfterForwards: trying the previous call's segment and
// the next one first is a shortcut for time that moves forward, not an
// assumption. After the clock has been extended far ahead, reads and
// inversions going back in time, then forward again, at breakpoints and
// between them, give bit for bit what the search over the whole history
// gives.
func TestReadBackwardsAfterForwards(t *testing.T) {
	rho := Rho(0.05)
	h := NewHardware(2, rho, RandomWalk{Rho: rho, MinDur: 0.05, MaxDur: 0.5}, rand.New(rand.NewSource(5)))
	var forward []float64
	for tt := 0.0; tt < 40; tt += 0.0625 {
		forward = append(forward, h.Read(tt))
	}
	if len(h.Breakpoints()) < 51 {
		t.Fatalf("expected many segments, got %d", len(h.Breakpoints())-1)
	}
	check := func(tt float64) {
		t.Helper()
		i := searchSegment(h.ts, tt)
		if got, want := h.Read(tt), h.hs[i]+(tt-h.ts[i])*h.rates[i]; got != want {
			t.Fatalf("Read(%v) = %v, search gives %v", tt, got, want)
		}
		local := h.Read(tt)
		if local <= h.hs[0] {
			return
		}
		i = searchSegment(h.hs, local)
		if got, want := h.Invert(local), h.ts[i]+(local-h.hs[i])/h.rates[i]; got != want {
			t.Fatalf("Invert(%v) = %v, search gives %v", local, got, want)
		}
	}
	for k := len(forward) - 1; k >= 0; k-- {
		tt := float64(k) * 0.0625
		if got := h.Read(tt); got != forward[k] {
			t.Fatalf("Read(%v) = %v going back, %v going forward", tt, got, forward[k])
		}
		check(tt)
	}
	// Every breakpoint, newest first, then oldest first, and the instants
	// either side of it.
	for k := len(h.ts) - 2; k >= 0; k-- {
		bp := h.ts[k]
		check(bp)
		check(math.Nextafter(bp, math.Inf(1)))
		if bp > 0 {
			check(math.Nextafter(bp, 0))
		}
	}
	for k := 0; k <= len(h.ts)-2; k++ {
		bp := h.ts[k]
		if bp > 0 {
			check(math.Nextafter(bp, 0))
		}
		check(bp)
		check(math.Nextafter(bp, math.Inf(1)))
	}
}

func TestRateBounds(t *testing.T) {
	h := NewConstant(0, 1, Rho(0.25))
	lo, hi := h.RateBounds()
	if hi != 1.25 || math.Abs(lo-0.8) > 1e-12 {
		t.Fatalf("RateBounds = (%v, %v)", lo, hi)
	}
	if h.Offset() != 0 {
		t.Fatalf("Offset = %v", h.Offset())
	}
}

// TestInvertInfinityReturnsAtOnce: no segment reaches local +Inf, so
// Invert answers +Inf without drawing one, where it used to draw for ever.
func TestInvertInfinityReturnsAtOnce(t *testing.T) {
	rho := Rho(0.01)
	h := NewHardware(0, rho, RandomWalk{Rho: rho, MinDur: 0.1, MaxDur: 1}, rand.New(rand.NewSource(3)))
	h.Read(5)
	before := len(h.Breakpoints())
	done := make(chan float64, 1)
	go func() { done <- h.Invert(math.Inf(1)) }()
	select {
	case got := <-done:
		if !math.IsInf(got, 1) {
			t.Fatalf("Invert(+Inf) = %v, want +Inf", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Invert(+Inf) did not return within 5 s")
	}
	if n := len(h.Breakpoints()); n != before {
		t.Fatalf("Invert(+Inf) drew %d segments", n-before)
	}
}

// TestMaterializeMatchesLazy: a clock materialized through T and a clock
// read lazily, on the same stream, answer Read and Invert bit for bit at
// the same instants, before T and past it, and have the same breakpoints.
// The materialized one keeps its storage while reads stay before T.
func TestMaterializeMatchesLazy(t *testing.T) {
	rho := Rho(0.05)
	walk := RandomWalk{Rho: rho, MinDur: 0.05, MaxDur: 1}
	var scratch Scratch
	for seed := int64(1); seed <= 20; seed++ {
		const horizon = 40.0
		eager := NewHardware(2, rho, walk, rand.New(rand.NewSource(seed)))
		lazy := NewHardware(2, rho, walk, rand.New(rand.NewSource(seed)))
		eager.Materialize(horizon, &scratch) // one scratch for every seed's clock
		bp := eager.Breakpoints()
		if last := bp[len(bp)-1]; !(last > horizon) || bp[len(bp)-2] > horizon {
			t.Fatalf("seed %d: materialized through %v, want the first breakpoint past %v", seed, last, horizon)
		}
		if len(eager.ts)+len(eager.hs)+len(eager.rates) != cap(eager.ts)+cap(eager.hs)+cap(eager.rates) {
			t.Fatalf("seed %d: storage not exactly sized", seed)
		}
		first := &bp[0]

		q := rand.New(rand.NewSource(-seed))
		for i := 0; i < 200; i++ {
			x := q.Float64() * 2 * horizon // before T, then past it
			if i < 100 {
				x /= 2
			}
			if a, b := eager.Read(x), lazy.Read(x); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: Read(%v) = %v eager, %v lazy", seed, x, a, b)
			}
			y := 2 + q.Float64()*2*horizon
			if i < 100 {
				y = 2 + q.Float64()*(horizon/2)
			}
			if a, b := eager.Invert(y), lazy.Invert(y); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: Invert(%v) = %v eager, %v lazy", seed, y, a, b)
			}
			if i == 99 && &eager.Breakpoints()[0] != first {
				t.Fatalf("seed %d: reads before %v grew the materialized storage", seed, horizon)
			}
		}
		eager.Read(3 * horizon)
		lazy.Read(3 * horizon)
		a, b := eager.Breakpoints(), lazy.Breakpoints()
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d breakpoints eager, %d lazy", seed, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) ||
				eager.hs[i] != lazy.hs[i] || i < len(a)-1 && eager.rates[i] != lazy.rates[i] {
				t.Fatalf("seed %d: breakpoint %d differs", seed, i)
			}
		}
	}
}

// TestMaterializeStopsAtItsCap: a distant horizon draws MaxMaterialized
// segments ahead and leaves the rest to reads.
func TestMaterializeStopsAtItsCap(t *testing.T) {
	rho := Rho(0.01)
	h := NewHardware(0, rho, RandomWalk{Rho: rho, MinDur: 0.5, MaxDur: 1}, rand.New(rand.NewSource(1)))
	h.Materialize(1e12, new(Scratch))
	if n := len(h.Breakpoints()) - 1; n != MaxMaterialized {
		t.Fatalf("materialized %d segments, want %d", n, MaxMaterialized)
	}
	end := h.Breakpoints()[MaxMaterialized]
	if got := h.Read(end + 10); !(got > 0) || len(h.Breakpoints())-1 <= MaxMaterialized {
		t.Fatalf("read past the cap did not extend the clock (%v)", got)
	}
}
