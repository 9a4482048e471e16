package network

import (
	"fmt"
	"math/rand"

	"optsync/internal/sim"
)

// MinDelayer is an optional Policy refinement: policies that know a hard
// floor on the delay of every message they ever deliver implement it. The
// floor is the sharded engine's conservative lookahead — the width of the
// safe window inside which shards run without synchronizing — so it must
// be a true lower bound: a policy that can deliver faster than its
// MinDelay would corrupt a parallel run. A policy that drops everything
// may return +Inf (no delivery constrains the window at all).
type MinDelayer interface {
	MinDelay() float64
}

// Lookahead returns the delivery-delay floor of p, or 0 when p does not
// expose one. A zero (or negative) lookahead means the sharded engine has
// no safe window and the simulation must run serially.
func Lookahead(p Policy) float64 {
	if m, ok := p.(MinDelayer); ok {
		return m.MinDelay()
	}
	return 0
}

// Fixed delivers every message after exactly D seconds.
type Fixed struct {
	D float64
}

var _ Policy = Fixed{}

// Delay implements Policy.
func (f Fixed) Delay(_, _ NodeID, _ sim.Time, _ *rand.Rand) float64 { return f.D }

// MinDelay implements MinDelayer.
func (f Fixed) MinDelay() float64 { return f.D }

// Uniform draws delays uniformly from [Min, Max]. This is the standard
// benign model: delay within (0, tdel].
type Uniform struct {
	Min, Max float64
}

var _ Policy = Uniform{}

// Delay implements Policy.
func (u Uniform) Delay(_, _ NodeID, _ sim.Time, rng *rand.Rand) float64 {
	if u.Max < u.Min {
		panic(fmt.Sprintf("network: Uniform{%v, %v} inverted", u.Min, u.Max))
	}
	return u.Min + rng.Float64()*(u.Max-u.Min)
}

// MinDelay implements MinDelayer.
func (u Uniform) MinDelay() float64 { return u.Min }

// Spread is the adversarial policy that maximizes acceptance spread among
// correct nodes: messages to nodes in Slow get the maximum delay, messages
// to everyone else the minimum. This realizes the worst case of the
// agreement proofs (some processes learn of a round as early as possible,
// others as late as possible).
type Spread struct {
	Min, Max float64
	Slow     map[NodeID]bool
}

var _ Policy = Spread{}

// Delay implements Policy.
func (s Spread) Delay(_, to NodeID, _ sim.Time, _ *rand.Rand) float64 {
	if s.Slow[to] {
		return s.Max
	}
	return s.Min
}

// MinDelay implements MinDelayer.
func (s Spread) MinDelay() float64 { return s.Min }
