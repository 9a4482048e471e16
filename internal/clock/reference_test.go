package clock

import (
	"fmt"
	"math"
)

// The two logical clocks Logical replaced, kept as the reference that
// FuzzLogicalMatchesReference holds it to: refJump is the jump-adjusted
// clock and refSlewed the amortizing one, as they were, but for their
// names. Neither can read its own past: refJump adds today's adjustment
// to every instant, and refSlewed keeps a second, truncated copy of its
// trajectory beside the history.

// refClock is the interface the node runtime worked against.
type refClock interface {
	Read(t float64) float64
	SetAt(t, value float64) float64
	WhenReads(value float64) float64
	History() []Adjustment
}

// refJump is a logical clock C(t) = H(t) + A(t), where A is a piecewise
// constant adjustment controlled by the synchronization protocol. The full
// adjustment history is retained for analysis (envelope measurements need
// the jump points).
type refJump struct {
	hw      *Hardware
	adj     float64
	history []Adjustment
}

var _ refClock = (*refJump)(nil)

// newRefJump wraps a hardware clock with a zero initial adjustment, so the
// logical clock initially equals the hardware clock.
func newRefJump(hw *Hardware) *refJump {
	return &refJump{hw: hw}
}

// Hardware exposes the underlying hardware clock.
func (l *refJump) Hardware() *Hardware { return l.hw }

// Adjustment returns the current adjustment A.
func (l *refJump) Adjustment() float64 { return l.adj }

// Read returns C(t) = H(t) + A.
func (l *refJump) Read(t float64) float64 { return l.hw.Read(t) + l.adj }

// SetAt sets the logical clock to read value at real time t, recording the
// jump. It returns the (signed) size of the jump in logical-time units.
func (l *refJump) SetAt(t, value float64) float64 {
	local := l.hw.Read(t)
	old := l.adj
	l.adj = value - local
	l.history = append(l.history, Adjustment{
		RealTime:  t,
		LocalTime: local,
		Old:       old,
		New:       l.adj,
	})
	return l.adj - old
}

// AdvanceAt adds delta to the clock at real time t, recording the jump.
func (l *refJump) AdvanceAt(t, delta float64) {
	local := l.hw.Read(t)
	old := l.adj
	l.adj += delta
	l.history = append(l.history, Adjustment{
		RealTime:  t,
		LocalTime: local,
		Old:       old,
		New:       l.adj,
	})
}

// WhenReads returns the earliest real time at which the logical clock will
// read value, assuming no further adjustments.
func (l *refJump) WhenReads(value float64) float64 {
	return l.hw.Invert(value - l.adj)
}

// History returns the adjustment history (not a copy; callers must not
// mutate it).
func (l *refJump) History() []Adjustment { return l.history }

// Jumps returns the number of adjustments performed.
func (l *refJump) Jumps() int { return len(l.history) }

// Slewing support: the paper notes that the discrete adjustment made at
// each resynchronization can be amortized ("spread out") to obtain
// continuous, strictly monotone logical clocks, at the cost of slightly
// larger constants. refSlewed implements this: instead of jumping, the
// adjustment A moves toward its target at a bounded rate sigma per unit of
// *local* (hardware) time, so the logical clock's rate stays within
// [(1-sigma), (1+sigma)] times the hardware rate — never negative for
// sigma < 1, hence monotone.
//
// The adjustment trajectory is piecewise linear in local time h:
// each SetAt starts a new segment from the current adjustment toward the
// new target with slope +-sigma, truncating any slew in progress.

// refSegment describes A(h) = startAdj + slope*(h-startH) for h in
// [startH, endH), after which A stays at the segment's final value until
// the next segment (or forever).
type refSegment struct {
	startH   float64
	endH     float64
	startAdj float64
	slope    float64
}

func (s refSegment) at(h float64) float64 {
	if h >= s.endH {
		h = s.endH
	}
	return s.startAdj + s.slope*(h-s.startH)
}

func (s refSegment) final() float64 { return s.at(s.endH) }

// refSlewed is a logical clock whose adjustments are amortized at a
// bounded rate. It offers the same interface as refJump.
type refSlewed struct {
	hw    *Hardware
	sigma float64
	segs  []refSegment // in increasing startH order; empty means A = 0
	hist  []Adjustment
}

var _ refClock = (*refSlewed)(nil)

// newRefSlewed wraps a hardware clock. sigma is the maximum adjustment rate
// in logical units per local time unit; it must lie in (0, 1) so the
// logical clock remains strictly increasing.
func newRefSlewed(hw *Hardware, sigma float64) *refSlewed {
	if sigma <= 0 || sigma >= 1 {
		panic(fmt.Sprintf("clock: slew rate %v outside (0, 1)", sigma))
	}
	return &refSlewed{hw: hw, sigma: sigma}
}

// Hardware exposes the underlying hardware clock.
func (l *refSlewed) Hardware() *Hardware { return l.hw }

// Sigma returns the slew rate.
func (l *refSlewed) Sigma() float64 { return l.sigma }

// adjAt evaluates the adjustment at local time h.
func (l *refSlewed) adjAt(h float64) float64 {
	if len(l.segs) == 0 {
		return 0
	}
	// Find the last segment starting at or before h.
	lo, hi := 0, len(l.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.segs[mid].startH <= h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0 // before the first adjustment
	}
	return l.segs[lo-1].at(h)
}

// Read returns C(t) = H(t) + A(H(t)).
func (l *refSlewed) Read(t float64) float64 {
	h := l.hw.Read(t)
	return h + l.adjAt(h)
}

// Adjustment returns the target adjustment currently being slewed toward
// (the final value of the last segment), or 0.
func (l *refSlewed) Adjustment() float64 {
	if len(l.segs) == 0 {
		return 0
	}
	return l.segs[len(l.segs)-1].final()
}

// SetAt requests that the clock read value at real time t. The adjustment
// begins slewing toward the implied target immediately; it reaches it
// after |delta|/sigma local time. Returns the (signed) remaining delta.
func (l *refSlewed) SetAt(t, value float64) float64 {
	h := l.hw.Read(t)
	cur := l.adjAt(h)
	target := value - h
	delta := target - cur
	slope := l.sigma
	if delta < 0 {
		slope = -l.sigma
	}
	end := h
	if delta != 0 {
		end = h + math.Abs(delta)/l.sigma
	}
	// Truncate any segment in progress so segments never overlap: the old
	// trajectory is cut at h (where it evaluates to cur, the new segment's
	// starting adjustment).
	if n := len(l.segs); n > 0 && l.segs[n-1].endH > h {
		l.segs[n-1].endH = h
	}
	l.segs = append(l.segs, refSegment{startH: h, endH: end, startAdj: cur, slope: slope})
	l.hist = append(l.hist, Adjustment{RealTime: t, LocalTime: h, Old: cur, New: target})
	return delta
}

// WhenReads returns the earliest real time at which the clock will read
// value, assuming no further SetAt calls. Because every segment's slope
// is > -1, C(h) = h + A(h) is strictly increasing in h and the equation
// C(h) = value has a unique solution found segment by segment.
func (l *refSlewed) WhenReads(value float64) float64 {
	// Local-time candidate assuming adjustment constant after the last
	// segment; walk segments to find where C crosses value.
	solve := func(startH, startAdj, slope, endH float64) (float64, bool) {
		// C(h) = h + startAdj + slope*(h - startH) on [startH, endH].
		cStart := startH + startAdj
		cEnd := endH + startAdj + slope*(endH-startH)
		if value < cStart-1e-12 || value > cEnd+1e-12 {
			return 0, false
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
	prevEnd := 0.0
	prevAdj := 0.0
	for _, s := range l.segs {
		// Constant stretch before this segment.
		if h, ok := solve(prevEnd, prevAdj, 0, s.startH); ok && s.startH > prevEnd {
			return l.hw.Invert(h)
		}
		if h, ok := solve(s.startH, s.startAdj, s.slope, s.endH); ok {
			return l.hw.Invert(h)
		}
		prevEnd = s.endH
		prevAdj = s.final()
	}
	// After all segments: C(h) = h + prevAdj.
	h := value - prevAdj
	if h < prevEnd {
		h = prevEnd
	}
	return l.hw.Invert(h)
}

// History returns the adjustment request history.
func (l *refSlewed) History() []Adjustment { return l.hist }

// Jumps returns the number of adjustment requests.
func (l *refSlewed) Jumps() int { return len(l.hist) }

// Slewing reports whether an adjustment is still in progress at real
// time t.
func (l *refSlewed) Slewing(t float64) bool {
	if len(l.segs) == 0 {
		return false
	}
	h := l.hw.Read(t)
	last := l.segs[len(l.segs)-1]
	return h < last.endH
}
