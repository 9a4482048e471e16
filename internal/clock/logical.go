package clock

import (
	"fmt"
	"math"
	"sort"
)

// Adjustment records one change of a logical clock's adjustment A, made at
// a resynchronization.
type Adjustment struct {
	// RealTime is the virtual real time at which the adjustment was made.
	RealTime float64
	// LocalTime is the hardware clock reading at that instant.
	LocalTime float64
	// Old is A at that instant. New is the value A jumps to or, for a
	// slewing clock, the target it heads for.
	Old, New float64
}

// Logical is a logical clock C(t) = H(t) + A(H(t)), where the adjustment
// A is set by the synchronization protocol. At slew rate 0, A jumps at
// every SetAt and is piecewise constant. At a slew rate sigma in (0, 1),
// A moves toward each new target at sigma logical units per local time
// unit instead (the paper's amortization remark), so C stays continuous
// and strictly increasing.
//
// The history is the trajectory: piece i of A starts at hist[i].LocalTime
// from hist[i].Old, heads for hist[i].New at slope ±sigma, and is cut
// short by piece i+1. So Read at a past instant returns what the clock
// read then.
type Logical struct {
	hw    *Hardware
	sigma float64
	hist  []Adjustment
	// reserve is the history's capacity at the first SetAt (Reserve).
	reserve int
}

// NewLogical wraps a hardware clock with a zero initial adjustment, so the
// logical clock initially equals the hardware clock. A slew rate of 0 or
// less jumps; a positive one must be below 1.
func NewLogical(hw *Hardware, slewRate float64) *Logical {
	if !(slewRate < 1) {
		panic(fmt.Sprintf("clock: slew rate %v not below 1", slewRate))
	}
	return &Logical{hw: hw, sigma: max(slewRate, 0)}
}

// Reserve makes the first SetAt allocate room for n adjustments at once,
// so that a run which sets the clock at most n times never grows its
// history, and a clock that is never set allocates none.
func (l *Logical) Reserve(n int) { l.reserve = n }

// Hardware exposes the underlying hardware clock.
func (l *Logical) Hardware() *Hardware { return l.hw }

// History returns the adjustment history (not a copy; callers must not
// mutate it).
func (l *Logical) History() []Adjustment { return l.hist }

// piece returns the slope of slewing piece i and the local time at which
// it ends: where A reaches the target, or piece i+1 starts if that comes
// first.
func (l *Logical) piece(i int) (slope, end float64) {
	a := l.hist[i]
	delta := a.New - a.Old
	slope, end = l.sigma, a.LocalTime
	if delta < 0 {
		slope = -l.sigma
	}
	if delta != 0 {
		end = a.LocalTime + math.Abs(delta)/l.sigma
	}
	if i+1 < len(l.hist) && end > l.hist[i+1].LocalTime {
		end = l.hist[i+1].LocalTime
	}
	return slope, end
}

// slewAt returns A at local time h on slewing piece i.
func (l *Logical) slewAt(i int, h float64) float64 {
	a := l.hist[i]
	slope, end := l.piece(i)
	if h >= end {
		h = end
	}
	return a.Old + slope*(h-a.LocalTime)
}

// adjustment returns A at local time h: 0 before the first piece, else
// that of the last piece starting at or before h. Simulated time only
// moves forward, so nearly every call lands on the last piece, and on a
// jump clock reads its New.
func (l *Logical) adjustment(h float64) float64 {
	i := len(l.hist) - 1
	if i >= 0 && h < l.hist[i].LocalTime {
		i = sort.Search(i, func(j int) bool { return l.hist[j].LocalTime > h }) - 1
	}
	if i < 0 {
		return 0
	}
	if l.sigma == 0 {
		return l.hist[i].New
	}
	return l.slewAt(i, h)
}

// Read returns C(t). A jump clock read at or after its last adjustment,
// as every read during a simulation is, adds that adjustment's New here
// rather than through adjustment, which spares the hottest clock path a
// call.
func (l *Logical) Read(t float64) float64 {
	h := l.hw.Read(t)
	if n := len(l.hist); n > 0 && l.sigma == 0 && h >= l.hist[n-1].LocalTime {
		return h + l.hist[n-1].New
	}
	return h + l.adjustment(h)
}

// SetAt requests that the clock read value at real time t, at once or at
// the end of a slew, and returns the signed size of the request. t must
// not precede the last SetAt's.
func (l *Logical) SetAt(t, value float64) float64 {
	h := l.hw.Read(t)
	cur := l.adjustment(h)
	target := value - h
	if l.hist == nil && l.reserve > 0 {
		l.hist = make([]Adjustment, 0, l.reserve)
	}
	l.hist = append(l.hist, Adjustment{RealTime: t, LocalTime: h, Old: cur, New: target})
	return target - cur
}

// WhenReads returns the earliest real time at which the clock reads value,
// assuming no further SetAt calls. A jump clock reads value where its
// hardware reads value minus the adjustment after the last piece. A
// slewing clock has slopes above -1, so C(h) = h + A(h) is strictly
// increasing in h; the walk takes the first constant stretch or slewing
// piece that reaches value, and after the last piece A is constant for
// good.
func (l *Logical) WhenReads(value float64) float64 {
	if l.sigma == 0 {
		return l.hw.Invert(value - l.adjustment(math.Inf(1)))
	}
	prevEnd, prevAdj := 0.0, 0.0
	for i, a := range l.hist {
		if a.LocalTime > prevEnd {
			if h, ok := solve(value, prevEnd, prevAdj, 0, a.LocalTime); ok {
				return l.hw.Invert(h)
			}
		}
		slope, end := l.piece(i)
		if h, ok := solve(value, a.LocalTime, a.Old, slope, end); ok {
			return l.hw.Invert(h)
		}
		prevEnd, prevAdj = end, l.slewAt(i, end)
	}
	h := value - prevAdj
	if h < prevEnd {
		h = prevEnd
	}
	return l.hw.Invert(h)
}

// solve finds where C(h) = h + startAdj + slope*(h - startH) reads value
// on [startH, endH]. The stretch holds value if its upper reading is at
// least value, give or take 1e-12; a value below its lower reading then
// answers startH, since the readings before it fell short.
func solve(value, startH, startAdj, slope, endH float64) (float64, bool) {
	cStart := startH + startAdj
	cEnd := endH + startAdj + slope*(endH-startH)
	if value > cEnd+1e-12 {
		return 0, false
	}
	if value < cStart-1e-12 {
		return startH, true
	}
	h := (value - startAdj + slope*startH) / (1 + slope)
	if h < startH {
		h = startH
	}
	if h > endH {
		h = endH
	}
	return h, true
}
