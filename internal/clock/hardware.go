// Package clock models the clocks of the Srikanth-Toueg system: hardware
// clocks with bounded drift and logical clocks obtained from them by an
// adjustment that jumps or slews.
//
// A hardware clock is a strictly increasing, continuous, piecewise-linear
// function H mapping real time t to local time H(t). The model requires
// that for all t' >= t
//
//	(t'-t)/(1+rho) <= H(t') - H(t) <= (1+rho)(t'-t),
//
// i.e. every segment's rate lies in [1/(1+rho), 1+rho]. The adversary of the
// paper chooses these functions arbitrarily within the envelope; here they
// are built from pluggable segment generators (constant, random walk).
//
// Clocks extend lazily: generators are consulted on demand when a read or
// inversion goes past the currently materialized horizon, with all
// randomness drawn from an injected deterministic source.
package clock

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Generator produces successive clock segments. Implementations must be
// deterministic given the random source passed to them.
type Generator interface {
	// NextSegment returns the real-time duration of the next segment and
	// the clock rate during it. Duration must be positive and the rate
	// must lie in the drift envelope of the clock using the generator.
	NextSegment(rng *rand.Rand) (dur, rate float64)
}

// Hardware is a piecewise-linear hardware clock.
type Hardware struct {
	// Breakpoints: H(ts[i]) = hs[i]; on [ts[i], ts[i+1]) the rate is rates[i].
	ts    []float64
	hs    []float64
	rates []float64

	gen Generator
	rng *rand.Rand

	minRate, maxRate float64
}

// Rho is a drift bound. MinRate and MaxRate convert it to the rate envelope
// used throughout the paper: rates in [1/(1+rho), 1+rho].
type Rho float64

// MinRate returns the slowest admissible clock rate, 1/(1+rho).
func (r Rho) MinRate() float64 { return 1 / (1 + float64(r)) }

// MaxRate returns the fastest admissible clock rate, 1+rho.
func (r Rho) MaxRate() float64 { return 1 + float64(r) }

// RelativeDrift returns the maximum rate at which two correct hardware
// clocks can drift apart: (1+rho) - 1/(1+rho).
func (r Rho) RelativeDrift() float64 { return r.MaxRate() - r.MinRate() }

// NewHardware builds a clock that reads offset at real time 0 and evolves
// according to gen. The rng must be dedicated to this clock (derive it from
// the engine's seed). rho bounds the admissible rates; NewHardware panics if
// a generator ever emits a rate outside [1/(1+rho), 1+rho] or a non-positive
// duration, since that would violate the model rather than be a runtime
// condition.
func NewHardware(offset float64, rho Rho, gen Generator, rng *rand.Rand) *Hardware {
	if gen == nil {
		gen = Constant{Rate: 1}
	}
	return &Hardware{
		ts:      []float64{0},
		hs:      []float64{offset},
		rates:   []float64{},
		gen:     gen,
		rng:     rng,
		minRate: rho.MinRate(),
		maxRate: rho.MaxRate(),
	}
}

// NewConstant is a convenience constructor for a fixed-rate clock.
func NewConstant(offset, rate float64, rho Rho) *Hardware {
	return NewHardware(offset, rho, Constant{Rate: rate}, nil)
}

// Offset returns H(0).
func (h *Hardware) Offset() float64 { return h.hs[0] }

// RateBounds returns the admissible rate envelope of this clock.
func (h *Hardware) RateBounds() (min, max float64) { return h.minRate, h.maxRate }

// extendTo materializes segments until the last breakpoint's real time is
// strictly greater than t.
func (h *Hardware) extendTo(t float64) {
	for h.ts[len(h.ts)-1] <= t {
		h.appendSegment()
	}
}

// extendToLocal materializes segments until the last breakpoint's local
// time is strictly greater than local.
func (h *Hardware) extendToLocal(local float64) {
	for h.hs[len(h.hs)-1] <= local {
		h.appendSegment()
	}
}

func (h *Hardware) appendSegment() {
	dur, rate := h.gen.NextSegment(h.rng)
	if dur <= 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		panic(fmt.Sprintf("clock: generator emitted invalid duration %v", dur))
	}
	const slack = 1e-12 // tolerate float rounding at the envelope edge
	if rate < h.minRate-slack || rate > h.maxRate+slack {
		panic(fmt.Sprintf("clock: generator emitted rate %v outside [%v, %v]",
			rate, h.minRate, h.maxRate))
	}
	last := len(h.ts) - 1
	h.rates = append(h.rates, rate)
	h.ts = append(h.ts, h.ts[last]+dur)
	h.hs = append(h.hs, h.hs[last]+dur*rate)
}

// Read returns the local time H(t). t must be >= 0.
func (h *Hardware) Read(t float64) float64 {
	if t < 0 {
		panic(fmt.Sprintf("clock: Read(%v) before time 0", t))
	}
	h.extendTo(t)
	i := segmentOf(h.ts, t)
	return h.hs[i] + (t-h.ts[i])*h.rates[i]
}

// segmentOf returns the segment Read and Invert evaluate x in, given the
// breakpoints xs extended past x: the first i with xs[i] == x, else the
// last with xs[i] < x. Simulated time only moves forward, so nearly every
// call lands in the last materialized segment, or in the one before it when
// a timer inversion has already extended the clock; those two are tried
// before the binary search over the whole history, and name the same index.
func segmentOf(xs []float64, x float64) int {
	last := len(xs) - 2 // the last segment runs from xs[last] to xs[last+1] > x
	if last >= 0 && xs[last] < x {
		return last
	}
	if last >= 1 && xs[last-1] < x && x < xs[last] {
		return last - 1
	}
	i := sort.SearchFloat64s(xs, x)
	if i == len(xs) || xs[i] > x {
		i--
	}
	if i == len(xs)-1 {
		i-- // x exactly at the last breakpoint
	}
	return i
}

// Invert returns the earliest real time t with H(t) >= local. For local
// values before H(0) it returns 0 (the clock already shows them or more).
func (h *Hardware) Invert(local float64) float64 {
	if local <= h.hs[0] {
		return 0
	}
	h.extendToLocal(local)
	i := segmentOf(h.hs, local)
	return h.ts[i] + (local-h.hs[i])/h.rates[i]
}

// Breakpoints returns the real times at which the materialized segments
// start, and the one at which the last of them ends: H is linear between
// two consecutive ones. The slice is the clock's own; callers must not
// modify it.
func (h *Hardware) Breakpoints() []float64 { return h.ts[:len(h.ts):len(h.ts)] }

// Constant emits an endless run of fixed-rate segments.
type Constant struct {
	// Rate is the clock rate; it must lie within the owning clock's
	// envelope.
	Rate float64
}

var _ Generator = Constant{}

// NextSegment implements Generator.
func (c Constant) NextSegment(*rand.Rand) (dur, rate float64) {
	return 1 << 20, c.Rate // effectively infinite segments
}

// RandomWalk emits segments with rates drawn uniformly from the drift
// envelope and durations drawn uniformly from [MinDur, MaxDur]. This is the
// "benign but wobbly" oscillator model.
type RandomWalk struct {
	Rho    Rho
	MinDur float64
	MaxDur float64
}

var _ Generator = RandomWalk{}

// NextSegment implements Generator.
func (w RandomWalk) NextSegment(rng *rand.Rand) (dur, rate float64) {
	lo, hi := w.Rho.MinRate(), w.Rho.MaxRate()
	rate = lo + rng.Float64()*(hi-lo)
	dur = w.MinDur + rng.Float64()*(w.MaxDur-w.MinDur)
	if dur <= 0 {
		dur = math.SmallestNonzeroFloat64
	}
	return dur, rate
}
