// Package core implements the two clock synchronization algorithms of
// Srikanth & Toueg, "Optimal Clock Synchronization" (PODC 1985 / JACM
// 1987).
//
// Both algorithms resynchronize in rounds: when a correct process's logical
// clock reads k*P it broadcasts evidence that round k is due; when a process
// *accepts* round k — obtains proof that at least one correct process's
// clock reached k*P — it sets its logical clock to k*P + alpha and relays
// the proof. The relay step bounds the spread of acceptance times across
// correct processes, which bounds the skew; because the clocks progress at
// hardware rate between rounds and the per-round adjustment is bounded by
// the skew, the synchronized clocks stay within a linear envelope of real
// time with the *same* rate bounds as the hardware clocks — the paper's
// optimal accuracy.
//
// The two variants differ in what constitutes proof:
//
//   - AuthProtocol (paper Section 3, f <= ceil(n/2)-1): a set of f+1
//     distinct valid signatures over "round k". Since at most f signers are
//     faulty, one signature comes from a correct process, which signs only
//     when its clock reads k*P (unforgeability). An accepting process
//     relays the signature set, so every correct process accepts within one
//     message delay of the first (relay).
//
//   - PrimitiveProtocol (paper Section 4, f < n/3): the symmetric
//     specialization of the paper's broadcast primitive. Processes send
//     ready(k) when their clock reads k*P; f+1 distinct ready(k) messages
//     prove some correct process is ready and cause a process to join
//     (send its own ready even before its clock reads k*P); 2f+1 distinct
//     ready(k) messages constitute acceptance. The general, asymmetric
//     primitive is in the stcast subpackage.
//
// Protocols communicate only through the node.Env interface and observe
// time only through the logical clock, as the model demands.
package core

import (
	"encoding/binary"
	"fmt"

	"optsync/internal/core/bounds"
)

// Config parameterizes either protocol variant.
type Config struct {
	// Period is P: the logical time between resynchronization rounds.
	Period float64
	// Alpha is the adjustment constant: accepting round k sets the clock
	// to k*P + Alpha. Use bounds.DefaultAlpha for the paper's choice.
	Alpha float64
	// MaxRoundAhead caps how far beyond the last accepted round per-round
	// state is retained, bounding memory against spam from faulty
	// processes. Rounds further ahead are ignored. Zero selects a
	// generous default.
	MaxRoundAhead int
	// ColdStart, when true, makes processes establish initial
	// synchronization instead of assuming it: hardware clocks may be
	// arbitrarily wrong at boot. Each process broadcasts a signed "awake"
	// message at boot; on f+1 distinct awake signatures (at least one
	// correct process is up) it sets its logical clock to Alpha, relays
	// the evidence, and starts the round schedule. Processes that boot
	// after the system is running synchronize by accepting the first
	// round they observe instead (the paper's integration path).
	ColdStart bool
	// DisableRelay turns off the relay-on-accept broadcast (authenticated
	// variant). FOR ABLATION ONLY: it voids the acceptance-spread bound —
	// the ablation benchmarks use it to measure what the relay step buys.
	DisableRelay bool
}

const defaultMaxRoundAhead = 1 << 14

func (c Config) withDefaults() Config {
	if c.MaxRoundAhead == 0 {
		c.MaxRoundAhead = defaultMaxRoundAhead
	}
	return c
}

func (c Config) validate() {
	if c.Period <= 0 {
		panic(fmt.Sprintf("core: non-positive period %v", c.Period))
	}
	if c.Alpha < 0 || c.Alpha >= c.Period {
		panic(fmt.Sprintf("core: alpha %v outside [0, period %v)", c.Alpha, c.Period))
	}
}

// ConfigFromBounds derives a protocol Config from a validated
// parameterization.
func ConfigFromBounds(p bounds.Params) Config {
	p = p.WithDefaults()
	return Config{Period: p.Period, Alpha: p.Alpha}
}

// RoundPayload is the canonical byte encoding of "round k" that gets
// signed. It is exported so that adversarial protocol implementations (the
// model lets faulty processes sign anything with their own keys) and tests
// can construct evidence; correct protocols never need it directly.
func RoundPayload(round int) []byte { return roundPayload(round) }

// roundPayload is the canonical byte encoding of "round k" that gets
// signed. The domain prefix prevents cross-protocol signature reuse.
func roundPayload(round int) []byte {
	buf := make([]byte, len(roundPrefix)+8)
	copy(buf, roundPrefix)
	binary.BigEndian.PutUint64(buf[len(roundPrefix):], uint64(int64(round)))
	return buf
}

const roundPrefix = "optsync/st/round/"

// awakePayload is the canonical byte encoding of the cold-start "awake"
// announcement.
func awakePayload() []byte { return []byte("optsync/st/awake") }

// roundTarget returns the logical clock value a process adopts when
// accepting round k.
func (c Config) roundTarget(round int) float64 {
	return float64(round)*c.Period + c.Alpha
}

// roundDue returns the logical clock value at which round k evidence is
// broadcast.
func (c Config) roundDue(round int) float64 {
	return float64(round) * c.Period
}
