// Package bounds implements the analytic constants of Srikanth & Toueg's
// optimal clock synchronization as executable formulas, so that every
// simulated run can be checked against the theorems.
//
// Notation:
//
//	rho   hardware drift bound; rates in [1/(1+rho), 1+rho]
//	dmin, dmax   message delay bounds between correct processes
//	P     resynchronization period (logical time between rounds)
//	alpha adjustment constant: on accepting round k a process sets its
//	      logical clock to k*P + alpha
//	beta  acceptance-spread bound: all correct processes accept a round
//	      within beta real time of the first correct acceptance. For the
//	      authenticated algorithm beta = dmax (the accepting process relays
//	      the full signature set, one hop); for the broadcast-primitive
//	      algorithm beta = 2*dmax (ready messages take up to two hops:
//	      f+1 correct readies trigger joins, joins complete the 2f+1
//	      acceptance quorum).
//
// Derivations (proved in the paper; re-derived in comments here because the
// tests rely on them):
//
//	D0   := (1+rho) * beta
//	       Post-resynchronization skew. If v accepts at a_v and w at
//	       a_w >= a_v with a_w - a_v <= beta, then at a_w process v's clock
//	       reads k*P + alpha + (H_v(a_w) - H_v(a_v)) <= k*P + alpha +
//	       (1+rho)*beta while w's reads exactly k*P + alpha.
//
//	Dmax := D0 + ((1+rho) - 1/(1+rho)) * L
//	       Steady-state agreement bound, where L bounds the real time
//	       between the end of one resynchronization and the end of the
//	       next: L = (1+rho)*(P - alpha) + dmax + beta (slowest clock needs
//	       (1+rho)(P-alpha) to progress from k*P+alpha to (k+1)*P, plus one
//	       delay for its evidence to circulate, plus the next spread).
//	       During L, two correct clocks diverge at most at the relative
//	       drift rate (1+rho) - 1/(1+rho).
//
//	Pmin := (P - alpha - Dmax)/(1+rho) - beta
//	       Minimum real time between a process's consecutive pulses; must
//	       be positive for the algorithm (and the experiments) to be
//	       meaningful.
//
//	Pmax := (1+rho)*(P - alpha) + dmax + 2*beta + D0
//	       Maximum real time between consecutive pulses at any process.
package bounds

import (
	"errors"
	"fmt"

	"optsync/internal/clock"
)

// Variant selects which of the paper's two algorithms the constants
// describe.
type Variant int

const (
	// Auth is the authenticated algorithm (Section 3 of the paper):
	// tolerates f <= ceil(n/2)-1 with signatures; acceptance spreads in
	// one message hop.
	Auth Variant = iota + 1
	// Primitive is the non-authenticated algorithm built on the broadcast
	// primitive (Section 4): tolerates f < n/3; acceptance spreads in two
	// hops.
	Primitive
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Auth:
		return "auth"
	case Primitive:
		return "primitive"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// SpreadHops returns the number of message hops acceptance takes to spread.
func (v Variant) SpreadHops() float64 {
	if v == Primitive {
		return 2
	}
	return 1
}

// MaxFaults returns the paper's optimal resilience for the variant:
// ceil(n/2)-1 with authentication, floor((n-1)/3) without.
func (v Variant) MaxFaults(n int) int {
	if v == Primitive {
		return (n - 1) / 3
	}
	return (n+1)/2 - 1 // ceil(n/2) - 1
}

// Params carries a full parameterization of one deployment.
type Params struct {
	N, F    int
	Variant Variant
	Rho     clock.Rho
	// DMin, DMax bound the delay of messages between correct processes.
	DMin, DMax float64
	// Period is P, the logical time between resynchronization rounds.
	Period float64
	// Alpha is the adjustment constant; see DefaultAlpha.
	Alpha float64
	// InitialSkew bounds |H_i(0) - H_j(0)| over correct processes.
	InitialSkew float64
}

// DefaultAlpha returns the paper's choice of adjustment constant,
// (1+rho)*dmax: the expected local-clock advance between a correct process
// broadcasting "round k" and processes accepting it, so that jumps are
// small and centered.
func DefaultAlpha(rho clock.Rho, dmax float64) float64 {
	return rho.MaxRate() * dmax
}

// WithDefaults fills Alpha (if zero) and returns the updated Params.
func (p Params) WithDefaults() Params {
	if p.Variant == 0 {
		p.Variant = Auth
	}
	if p.Alpha == 0 {
		p.Alpha = DefaultAlpha(p.Rho, p.DMax)
	}
	return p
}

// Errors returned by Validate.
var (
	ErrResilience = errors.New("bounds: too many faults for variant")
	ErrPeriod     = errors.New("bounds: period too short for parameters")
	ErrDelays     = errors.New("bounds: invalid delay range")
)

// Validate checks that the parameterization satisfies the paper's
// constraints: resilience (n > 2f with authentication, n > 3f without) and
// a period long enough that rounds cannot overlap (Pmin > 0).
func (p Params) Validate() error {
	if p.DMin < 0 || p.DMax < p.DMin || p.DMax <= 0 {
		return fmt.Errorf("%w: [%v, %v]", ErrDelays, p.DMin, p.DMax)
	}
	switch p.Variant {
	case Auth:
		if 2*p.F >= p.N {
			return fmt.Errorf("%w: auth requires n > 2f, got n=%d f=%d", ErrResilience, p.N, p.F)
		}
	case Primitive:
		if 3*p.F >= p.N {
			return fmt.Errorf("%w: primitive requires n > 3f, got n=%d f=%d", ErrResilience, p.N, p.F)
		}
	default:
		return fmt.Errorf("bounds: unknown variant %v", p.Variant)
	}
	if p.Pmin() <= 0 {
		return fmt.Errorf("%w: P=%v yields Pmin=%v", ErrPeriod, p.Period, p.Pmin())
	}
	if p.Alpha >= p.Period {
		return fmt.Errorf("%w: alpha=%v >= P=%v", ErrPeriod, p.Alpha, p.Period)
	}
	return nil
}

// Beta returns the acceptance-spread bound.
func (p Params) Beta() float64 {
	return p.Variant.SpreadHops() * p.DMax
}

// D0 returns the post-resynchronization skew bound (1+rho)*beta, plus the
// initial skew term for round 0 (the bound must also cover the state before
// the first resynchronization, which is InitialSkew plus drift; steady
// state is governed by the resync term).
func (p Params) D0() float64 {
	return p.Rho.MaxRate() * p.Beta()
}

// ResyncWindow returns L, the real-time bound between the end of one
// resynchronization and the end of the next.
func (p Params) ResyncWindow() float64 {
	return p.Rho.MaxRate()*(p.Period-p.Alpha) + p.DMax + p.Beta()
}

// Dmax returns the steady-state agreement bound. Besides the
// post-resynchronization skew D0 and the drift accumulated between rounds,
// it carries an additive alpha for the *acceptance-wave transient*: while a
// round's acceptances propagate, a process that already accepted reads
// k*P + alpha while a process that has not yet accepted can read up to the
// pre-round skew behind k*P — with a small quorum (f+1 with small f)
// acceptance fires as soon as the fastest processes are ready, exposing the
// full alpha + D_pre gap for up to beta time.
func (p Params) Dmax() float64 {
	return p.D0() + p.Alpha + p.Rho.RelativeDrift()*p.ResyncWindow()
}

// DmaxWithStart returns the agreement bound covering the initial interval
// as well: the maximum of the steady-state bound and the initial skew plus
// drift accumulated until the first resynchronization completes.
func (p Params) DmaxWithStart() float64 {
	initial := p.InitialSkew + p.Rho.RelativeDrift()*(p.Rho.MaxRate()*p.Period+p.DMax+p.Beta())
	if d := p.Dmax(); d > initial {
		return d
	}
	return initial
}

// Pmin returns the minimum real time between a correct process's
// consecutive pulses.
func (p Params) Pmin() float64 {
	return (p.Period-p.Alpha-p.Dmax())/p.Rho.MaxRate() - p.Beta()
}

// Pmax returns the maximum real time between a correct process's
// consecutive pulses.
func (p Params) Pmax() float64 {
	return p.Rho.MaxRate()*(p.Period-p.Alpha) + p.DMax + 2*p.Beta() + p.D0()
}

// EnvelopeSlack returns the additive slack on the long-run logical clock
// rate induced by per-round jitter: each round contributes at most
// D0 + alpha + dmax of phase noise over a period of at least Pmin real
// time, so a rate measured by regression over many rounds lies within
// [1/(1+rho) - slack, (1+rho) + slack].
func (p Params) EnvelopeSlack() float64 {
	return (p.D0() + p.Alpha + p.DMax) / p.Pmin()
}

// RateUpper returns the worst-case long-run rate of the synchronized
// clocks under within-resilience adversarial timing. Faulty processes may
// sign "round k" arbitrarily early; acceptance then fires the instant the
// fastest correct clock reads k*P, and the +alpha jump compounds: logical
// progress P per at least (P-alpha)/(1+rho) real time, i.e. rate at most
// (1+rho)*P/(P-alpha). The paper's accuracy theorem carries exactly this
// correction term, and its optimality theorem shows no algorithm can avoid
// it (the adversary hides inside the delay uncertainty); "optimal
// accuracy" means matching these bounds, which converge to the hardware
// bounds as P grows.
func (p Params) RateUpper() float64 {
	return p.Rho.MaxRate() * p.Period / (p.Period - p.Alpha)
}

// RateLower is the slow-direction counterpart of RateUpper: acceptance can
// lag the last correct process's readiness by a full message delay plus the
// acceptance spread, so logical progress P can take up to about
// (P + beta + dmax)/(1/(1+rho)) real time.
func (p Params) RateLower() float64 {
	return p.Rho.MinRate() * p.Period / (p.Period + p.Beta() + p.DMax)
}

// EnvelopeRateBounds returns the admissible long-run rate interval for the
// synchronized logical clocks. Optimal accuracy means these bounds converge
// to the hardware bounds [1/(1+rho), 1+rho] as P grows — the defining
// property of the paper.
func (p Params) EnvelopeRateBounds() (lo, hi float64) {
	s := p.EnvelopeSlack()
	return p.RateLower() - s, p.RateUpper() + s
}

// EnvelopeSlackOver returns the rate slack for a least-squares fit over a
// measurement span of duration d. The synchronized clocks equal real time
// times a hardware-envelope rate plus bounded phase noise of amplitude
// eps = D0 + alpha + dmax; the worst-case slope bias of an OLS fit of
// bounded noise over span d is 3*eps/d (cov(x, g) <= eps*d/4 against
// var(x) = d^2/12), so we allow 4*eps/d for margin. This is the form in
// which the paper's optimal accuracy is falsifiable: the measured rate
// converges to the hardware envelope as the horizon grows, while a
// sub-optimal algorithm under attack has a genuine rate error that does
// not shrink with d.
func (p Params) EnvelopeSlackOver(d float64) float64 {
	if d < p.Pmin() {
		d = p.Pmin()
	}
	return 4 * (p.D0() + p.Alpha + p.DMax) / d
}

// EnvelopeRateBoundsOver is EnvelopeRateBounds with the measurement-span
// slack of EnvelopeSlackOver.
func (p Params) EnvelopeRateBoundsOver(d float64) (lo, hi float64) {
	s := p.EnvelopeSlackOver(d)
	return p.RateLower() - s, p.RateUpper() + s
}

// MessagesPerRound returns the worst-case number of messages correct
// processes send per resynchronization round: each broadcasts its evidence
// and relays once on acceptance (auth), or sends ready once (primitive
// processes send at most one ready per round) — O(n^2) links either way.
func (p Params) MessagesPerRound() int {
	correct := p.N - p.F
	if p.Variant == Auth {
		return 2 * correct * p.N // initial broadcast + relay, n recipients each
	}
	return correct * p.N // one ready broadcast each
}
